// Command layers is the benchmark's traced run: it replays the first documents
// after warm-up of one workload through each layer of the repository in turn,
// in process, with a span around every call into a layer's public functions,
// and reports per-layer metrics. cmd/bench runs it after the end-to-end runs,
// never during them. Spans stay in memory and are written to
// <out>/trace-<workload>.json at exit.
//
// It calls a fixed, small set of functions. Anything optional (a stats field,
// an Options knob) is reached by name through reflection, so a later change
// that deletes it drops the metric from the report instead of breaking the
// build; dropped metrics are listed as absent.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"time"

	mmqjp "repro"
	"repro/benchmark/gen"
	"repro/benchmark/load"
	"repro/internal/core"
	"repro/internal/sym"
	"repro/internal/xmldoc"
	"repro/internal/xscl"
	"repro/internal/yfilter"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// span is one timed call into a layer. Start and End are nanoseconds since
// the run began; Parent is the id of the enclosing span or -1; Doc is the
// document's index among the replayed ones, or -1 for a span covering many.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Doc    int    `json:"doc"`
}

type tracer struct {
	t0    time.Time
	spans []span
	off   bool // spans are timed but not recorded
}

// begin opens a span and returns its id; end closes it and returns its
// duration. With the tracer off the id is -1 and only the duration is kept,
// which is what the untraced half of trace.overhead_ratio measures.
func (t *tracer) begin(name string, parent, doc int) (id int, start time.Time) {
	start = time.Now()
	if t.off {
		return -1, start
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Name: name, Start: start.Sub(t.t0).Nanoseconds(), Parent: parent, Doc: doc})
	return len(t.spans) - 1, start
}

func (t *tracer) end(id int, start time.Time) time.Duration {
	now := time.Now()
	if id >= 0 {
		t.spans[id].End = now.Sub(t.t0).Nanoseconds()
	}
	return now.Sub(start)
}

type run struct {
	spec    gen.Spec
	script  *gen.Script
	warm    []gen.Doc
	docs    []gen.Doc // the replayed documents
	tr      tracer
	metrics map[string]metric
	absent  []string
	// attempted and failed count the wire operations of the loopback
	// replay, the only part of the traced run that can fail softly.
	attempted, failed int
}

func (r *run) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

func us(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / 1e3 / float64(n) }

func main() {
	workload := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "workload seed")
	ndocs := flag.Int("docs", 0, "documents to replay after warm-up (default: the workload's TraceDocs)")
	server := flag.String("server", "", "mmqjp-server binary for the loopback replay")
	out := flag.String("out", ".", "directory for trace-<workload>.json")
	flag.Parse()

	spec, ok := gen.Lookup(*workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "layers: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	if *ndocs <= 0 {
		*ndocs = spec.TraceDocs
	}
	sc := spec.Build(*seed, spec.Warm+*ndocs)
	r := &run{spec: spec, script: sc, warm: sc.Docs[:spec.Warm], docs: sc.Docs[spec.Warm:],
		tr: tracer{t0: time.Now()}, metrics: map[string]metric{}}
	if err := r.all(*server); err != nil {
		fmt.Fprintln(os.Stderr, "layers:", err)
		os.Exit(1)
	}
	path := filepath.Join(*out, "trace-"+spec.Name+".json")
	trace, _ := json.Marshal(map[string]any{"workload": spec.Name, "seed": *seed, "unit": "ns", "spans": r.tr.spans})
	if err := os.WriteFile(path, trace, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "layers:", err)
		os.Exit(1)
	}
	r.report(path)
}

func (r *run) all(server string) error {
	// The core pass comes first: it is the first to parse the replayed
	// documents, which is when their values enter the symbol table.
	if err := r.corePass(); err != nil {
		return err
	}
	if err := r.queryLayers(); err != nil {
		return err
	}
	if err := r.enginePass(); err != nil {
		return err
	}
	if err := r.xmlPass(); err != nil {
		return err
	}
	if err := r.asyncPass(); err != nil {
		return err
	}
	if err := r.routerPass(); err != nil {
		return err
	}
	if err := r.serverPass(server); err != nil {
		return err
	}
	m := r.metrics
	r.set("engine.facade_overhead_us_per_doc",
		m["engine.publish_us_per_doc"].Value-m["core.stage1_us_per_doc"].Value-m["core.stage2_us_per_doc"].Value, "us")
	r.set("server.overhead_us_per_doc", m["server.pub_rtt_us"].Value-m["engine.publish_xml_us_per_doc"].Value, "us")
	r.set("trace.closure", (m["xmldoc.parse_us_per_doc"].Value+m["core.stage1_us_per_doc"].Value+m["core.stage2_us_per_doc"].Value+
		m["engine.facade_overhead_us_per_doc"].Value+m["server.overhead_us_per_doc"].Value)/m["server.pub_rtt_us"].Value, "ratio")
	return nil
}

// ---- reaching optional things by name ----

// setField sets a struct field by name when it exists and the value fits.
func setField(ptr any, name string, value any) bool {
	f := reflect.ValueOf(ptr).Elem().FieldByName(name)
	v := reflect.ValueOf(value)
	if !f.IsValid() || !f.CanSet() || !v.Type().ConvertibleTo(f.Type()) {
		return false
	}
	f.Set(v.Convert(f.Type()))
	return true
}

// numbers returns a struct's numeric fields by name (durations in ns).
func numbers(v any) map[string]float64 {
	out := map[string]float64{}
	rv := reflect.ValueOf(v)
	for i := 0; i < rv.NumField(); i++ {
		switch f := rv.Field(i); f.Kind() {
		case reflect.Int, reflect.Int64, reflect.Int32:
			out[rv.Type().Field(i).Name] = float64(f.Int())
		case reflect.Float64:
			out[rv.Type().Field(i).Name] = f.Float()
		}
	}
	return out
}

// engineOptions mirrors the flag defaults of cmd/mmqjp-server, which is what
// the end-to-end runs measure: view materialization on, one Stage-2 worker
// and one pipeline slot per CPU, exploration every 64 plan decisions.
func (r *run) engineOptions(partitions int) mmqjp.Options {
	var o mmqjp.Options
	for name, v := range map[string]any{
		"Processor": 1, "Parallelism": runtime.NumCPU(), "PipelineDepth": runtime.NumCPU(), "PlanExploreEvery": 64,
	} {
		if !setField(&o, name, v) {
			r.absent = append(r.absent, "Options."+name)
		}
	}
	if partitions > 1 && !setField(&o, "Partitions", partitions) {
		r.absent = append(r.absent, "Options.Partitions")
	}
	return o
}

func (r *run) coreConfig() core.Config {
	var c core.Config
	for name, v := range map[string]any{
		"ViewMaterialization": true, "Workers": runtime.NumCPU(), "PlanExploreEvery": 64,
	} {
		if !setField(&c, name, v) {
			r.absent = append(r.absent, "core.Config."+name)
		}
	}
	return c
}

// ---- xscl and yfilter: the subscription side ----

func (r *run) queryLayers() error {
	subs := r.script.Subs
	qs := make([]*xscl.Query, len(subs))
	id, t := r.tr.begin("xscl.parse", -1, -1)
	for i, s := range subs {
		q, err := xscl.Parse(s)
		if err != nil {
			return err
		}
		qs[i] = q
	}
	r.set("xscl.parse_us_per_query", us(r.tr.end(id, t), len(subs)), "us")

	// A stand-alone NFA over every block of every subscription: the cost
	// of shared path matching alone, before witnesses are assembled.
	yf := yfilter.NewEngine()
	distinct := map[yfilter.PatternID]bool{}
	for _, q := range qs {
		distinct[yf.Register(q.Left)] = true
		if q.Right != nil {
			distinct[yf.Register(q.Right)] = true
		}
	}
	r.set("yfilter.patterns", float64(len(distinct)), "count")
	parsed := make([]*xmldoc.Document, len(r.docs))
	for i, d := range r.docs {
		doc, err := xmldoc.ParseString(d.XML, xmldoc.DocID(i+1), xmldoc.Timestamp(d.TS))
		if err != nil {
			return err
		}
		parsed[i] = doc
	}
	pass, passStart := r.tr.begin("pass:yfilter", -1, -1)
	var total time.Duration
	for i, doc := range parsed {
		id, t := r.tr.begin("yfilter.match", pass, i)
		yf.MatchDocument(gen.Stream, doc).Release()
		total += r.tr.end(id, t)
	}
	r.tr.end(pass, passStart)
	r.set("yfilter.match_us_per_doc", us(total, len(parsed)), "us")
	return nil
}

// ---- core: parse, Stage 1, Stage 2 on a bare processor ----

type unregisterer interface {
	Unregister(core.QueryID) error
}

func (r *run) corePass() error {
	p := core.NewProcessor(r.coreConfig())
	register := func(src string) error {
		q, err := xscl.Parse(src)
		if err != nil {
			return err
		}
		_, err = p.Register(q)
		return err
	}
	for _, s := range r.script.Subs {
		if err := register(s); err != nil {
			return err
		}
	}
	churn := func(i int) error {
		ch, ok := r.script.Churn[i]
		u, can := any(p).(unregisterer)
		if !ok || !can {
			return nil
		}
		if err := u.Unregister(core.QueryID(ch.Unsub)); err != nil {
			return err
		}
		return register(ch.Sub)
	}
	for i, d := range r.warm {
		if err := churn(i); err != nil {
			return err
		}
		doc, err := xmldoc.ParseString(d.XML, xmldoc.DocID(i+1), xmldoc.Timestamp(d.TS))
		if err != nil {
			return err
		}
		p.ConsumeStage1(p.RunStage1(gen.Stream, doc))
	}

	syms, before := sym.Count(), numbers(p.Stats())
	pass, passStart := r.tr.begin("pass:core", -1, -1)
	var parse, s1, s2 time.Duration
	var nodes, xmlBytes int
	for i, d := range r.docs {
		n := len(r.warm) + i
		if err := churn(n); err != nil {
			return err
		}
		id, t := r.tr.begin("xmldoc.parse", pass, i)
		doc, err := xmldoc.ParseString(d.XML, xmldoc.DocID(n+1), xmldoc.Timestamp(d.TS))
		parse += r.tr.end(id, t)
		if err != nil {
			return err
		}
		nodes, xmlBytes = nodes+doc.Len(), xmlBytes+len(d.XML)

		id, t = r.tr.begin("core.stage1", pass, i)
		res := p.RunStage1(gen.Stream, doc)
		s1 += r.tr.end(id, t)
		id, t = r.tr.begin("core.stage2", pass, i)
		p.ConsumeStage1(res)
		s2 += r.tr.end(id, t)
	}
	r.tr.end(pass, passStart)
	after := numbers(p.Stats())

	n := len(r.docs)
	r.set("xmldoc.parse_us_per_doc", us(parse, n), "us")
	r.set("xmldoc.parse_mb_per_s", float64(xmlBytes)/1e6/parse.Seconds(), "MB/s")
	r.set("xmldoc.nodes_per_doc", float64(nodes)/float64(n), "count")
	r.set("core.stage1_us_per_doc", us(s1, n), "us")
	r.set("core.stage2_us_per_doc", us(s2, n), "us")
	r.set("sym.count_end", float64(sym.Count()), "count")
	r.set("sym.new_per_doc", float64(sym.Count()-syms)/float64(n), "count")

	delta := func(field string) (float64, bool) {
		a, ok := after[field]
		return a - before[field], ok
	}
	phases := 0.0
	for _, ph := range []struct{ metric, field string }{
		{"core.xpath_us_per_doc", "XPath"}, {"core.witness_us_per_doc", "Witness"}, {"core.rvj_us_per_doc", "Rvj"},
		{"core.rl_us_per_doc", "RL"}, {"core.rr_us_per_doc", "RR"}, {"core.cq_us_per_doc", "CQ"},
		{"core.maintain_us_per_doc", "Maintain"}, {"core.explore_us_per_doc", "ExploreWall"},
	} {
		if d, ok := delta(ph.field); ok {
			r.set(ph.metric, d/1e3/float64(n), "us")
			phases += d
		} else {
			r.absent = append(r.absent, ph.metric)
		}
	}
	if cq, ok := delta("CQ"); ok && phases > 0 {
		r.set("core.cq_share", cq/phases, "ratio")
	}
	for _, c := range []struct{ metric, field string }{
		{"core.explorations_per_doc", "Explorations"}, {"core.splits_per_doc", "Splits"},
		{"core.steals_per_doc", "Steals"}, {"core.matches_per_doc", "Matches"},
	} {
		if d, ok := delta(c.field); ok {
			r.set(c.metric, d/float64(n), "count")
		} else {
			r.absent = append(r.absent, c.metric)
		}
	}
	rt, ok1 := delta("RTPlans")
	wit, ok2 := delta("WitnessPlans")
	if ok1 && ok2 && rt+wit > 0 {
		r.set("core.plan_rt_share", rt/(rt+wit), "ratio")
	} else {
		r.absent = append(r.absent, "core.plan_rt_share")
	}
	return nil
}

// ---- engine: the public facade ----

// newEngine subscribes the workload on a fresh engine and publishes the
// warm-up documents, applying the churn that rides with them.
func (r *run) newEngine(partitions int, timeSubs bool) (*mmqjp.Engine, error) {
	e := mmqjp.New(r.engineOptions(partitions))
	id, t := r.tr.begin("engine.subscribe", -1, -1)
	for _, s := range r.script.Subs {
		if _, err := e.Subscribe(s); err != nil {
			return nil, err
		}
	}
	if d := r.tr.end(id, t); timeSubs {
		r.set("engine.subscribe_us_per_query", us(d, len(r.script.Subs)), "us")
	}
	for i, d := range r.warm {
		if err := r.churn(e, i); err != nil {
			return nil, err
		}
		if _, err := e.PublishDoc(gen.Stream, nil, mmqjp.WithXML(d.XML, int64(i+1), d.TS)); err != nil {
			return nil, err
		}
	}
	return e, nil
}

func (r *run) churn(e *mmqjp.Engine, i int) error {
	ch, ok := r.script.Churn[i]
	if !ok {
		return nil
	}
	if err := e.Unsubscribe(mmqjp.QueryID(ch.Unsub)); err != nil {
		return err
	}
	_, err := e.Subscribe(ch.Sub)
	return err
}

// parsedDocs parses the replayed documents under the ids a fresh engine's
// stream would give them.
func (r *run) parsedDocs() ([]*mmqjp.Document, error) {
	out := make([]*mmqjp.Document, len(r.docs))
	for i, d := range r.docs {
		doc, err := mmqjp.ParseDocument(d.XML, int64(len(r.warm)+i+1), d.TS)
		if err != nil {
			return nil, err
		}
		out[i] = doc
	}
	return out, nil
}

func (r *run) enginePass() error {
	e, err := r.newEngine(0, true)
	if err != nil {
		return err
	}
	defer e.Close()
	docs, err := r.parsedDocs()
	if err != nil {
		return err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	pass, passStart := r.tr.begin("pass:engine.publish", -1, -1)
	// Odd documents run with the tracer off: same engine, same state,
	// interleaved, so the two means differ by the tracing cost alone.
	var traced, untraced time.Duration
	for i, doc := range docs {
		if err := r.churn(e, len(r.warm)+i); err != nil {
			return err
		}
		r.tr.off = i%2 == 1
		id, t := r.tr.begin("engine.publish", pass, i)
		_, err := e.PublishDoc(gen.Stream, doc)
		d := r.tr.end(id, t)
		if err != nil {
			return err
		}
		if r.tr.off {
			untraced += d
		} else {
			traced += d
		}
	}
	r.tr.off = false
	r.tr.end(pass, passStart)
	runtime.ReadMemStats(&ms1)
	n := len(docs)
	r.set("engine.publish_us_per_doc", us(traced+untraced, n), "us")
	r.set("trace.overhead_ratio", us(traced, (n+1)/2)/us(untraced, n/2), "ratio")
	r.set("runtime.alloc_bytes_per_doc", float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(n), "B")
	r.set("runtime.allocs_per_doc", float64(ms1.Mallocs-ms0.Mallocs)/float64(n), "count")
	r.set("runtime.gc_cycles", float64(ms1.NumGC-ms0.NumGC), "count")
	r.set("runtime.gc_pause_ms", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6, "ms")

	stats, _ := json.Marshal(e.Stats())
	var byName map[string]float64
	json.Unmarshal(stats, &byName) // non-numeric fields are skipped with an error we do not need
	if v, ok := byName["templates"]; ok {
		r.set("engine.templates", v, "count")
	} else {
		r.absent = append(r.absent, "engine.templates")
	}

	var buf bytes.Buffer
	id, t := r.tr.begin("snapshot.save", -1, -1)
	err = e.Snapshot(&buf)
	r.set("snapshot.save_ms", r.tr.end(id, t).Seconds()*1e3, "ms")
	if err != nil {
		return err
	}
	r.set("snapshot.bytes", float64(buf.Len()), "B")
	id, t = r.tr.begin("snapshot.restore", -1, -1)
	restored, err := mmqjp.OpenEngine(&buf, r.engineOptions(0))
	r.set("snapshot.restore_ms", r.tr.end(id, t).Seconds()*1e3, "ms")
	if err != nil {
		return err
	}
	restored.Close()

	// Unsubscribe the oldest subscriptions still live, against full state.
	first := len(r.script.Churn)
	k := min(1000, len(r.script.Subs)-first)
	id, t = r.tr.begin("engine.unsubscribe", -1, -1)
	for q := first; q < first+k; q++ {
		if err := e.Unsubscribe(mmqjp.QueryID(q)); err != nil {
			return err
		}
	}
	r.set("engine.unsubscribe_us_per_query", us(r.tr.end(id, t), k), "us")
	return nil
}

// timedPublish replays the documents through publish on a fresh engine and
// returns the total time inside it.
func (r *run) timedPublish(partitions int, name string, publish func(e *mmqjp.Engine, i int, d gen.Doc) error) (time.Duration, error) {
	e, err := r.newEngine(partitions, false)
	if err != nil {
		return 0, err
	}
	defer e.Close()
	pass, passStart := r.tr.begin("pass:"+name, -1, -1)
	var total time.Duration
	for i, d := range r.docs {
		if err := r.churn(e, len(r.warm)+i); err != nil {
			return 0, err
		}
		id, t := r.tr.begin(name, pass, i)
		err := publish(e, i, d)
		total += r.tr.end(id, t)
		if err != nil {
			return 0, err
		}
	}
	r.tr.end(pass, passStart)
	return total, nil
}

func (r *run) publishXML(e *mmqjp.Engine, i int, d gen.Doc) error {
	_, err := e.PublishDoc(gen.Stream, nil, mmqjp.WithXML(d.XML, int64(len(r.warm)+i+1), d.TS))
	return err
}

func (r *run) xmlPass() error {
	total, err := r.timedPublish(0, "engine.publish_xml", r.publishXML)
	r.set("engine.publish_xml_us_per_doc", us(total, len(r.docs)), "us")
	return err
}

func (r *run) routerPass() error {
	total, err := r.timedPublish(2, "router.p2_publish", r.publishXML)
	if err != nil {
		return err
	}
	r.set("router.p2_publish_us_per_doc", us(total, len(r.docs)), "us")
	r.set("router.p2_overhead_ratio", us(total, len(r.docs))/r.metrics["engine.publish_xml_us_per_doc"].Value, "ratio")
	return nil
}

// asyncPass floods the ingest pipeline with every replayed document and
// waits for the last delivery; churn workloads register between admissions,
// which the engine turns into pipeline barriers.
func (r *run) asyncPass() error {
	e, err := r.newEngine(0, false)
	if err != nil {
		return err
	}
	defer e.Close()
	docs, err := r.parsedDocs()
	if err != nil {
		return err
	}
	done := make([]<-chan []mmqjp.Match, len(docs))
	id, t := r.tr.begin("ingest.async", -1, -1)
	for i, doc := range docs {
		if err := r.churn(e, len(r.warm)+i); err != nil {
			return err
		}
		res, err := e.PublishDoc(gen.Stream, doc, mmqjp.WithAsync())
		if err != nil {
			return err
		}
		done[i] = res.Done
	}
	for _, ch := range done {
		<-ch
	}
	rate := float64(len(docs)) / r.tr.end(id, t).Seconds()
	r.set("ingest.async_docs_per_s", rate, "docs/s")
	r.set("ingest.async_speedup", rate/(1e6/r.metrics["engine.publish_us_per_doc"].Value), "ratio")
	return nil
}

// ---- server: the wire, one request in flight ----

func (r *run) serverPass(bin string) error {
	srv, err := load.StartServer(bin, io.Discard)
	if err != nil {
		return err
	}
	defer srv.Stop()
	c, err := load.Dial(srv.Addr)
	if err != nil {
		return err
	}
	defer c.Close()
	w := load.Render(r.script)
	if err := c.Subscribe(w); err != nil {
		return err
	}
	if err := c.Closed(w.Ops[:len(r.warm)], load.InFlight); err != nil {
		return err
	}
	bytes0 := c.BytesIn
	pass, passStart := r.tr.begin("pass:server.pub", -1, -1)
	var total time.Duration
	matches := 0
	for i, op := range w.Ops[len(r.warm):] {
		id, t := r.tr.begin("server.pub", pass, i)
		rtt, m, err := c.Do(op)
		r.tr.end(id, t)
		if err != nil {
			return err
		}
		total, matches = total+rtt, matches+m
	}
	r.tr.end(pass, passStart)
	r.attempted, r.failed = c.Attempted, c.Failed
	n := len(r.docs)
	r.set("server.pub_rtt_us", us(total, n), "us")
	r.set("server.match_lines_per_doc", float64(matches)/float64(n), "count")
	r.set("server.reply_bytes_per_doc", float64(c.BytesIn-bytes0)/float64(n), "B")
	return nil
}

// ---- report ----

func (r *run) report(tracePath string) {
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("\n== %s: per-layer metrics over %d documents after %d warm-up, traced in process ==\n", r.spec.Name, len(r.docs), len(r.warm))
	for _, n := range names {
		fmt.Printf("  %-36s %14.3f %s\n", n, r.metrics[n].Value, r.metrics[n].Unit)
	}
	if c := r.metrics["trace.closure"].Value; c < 0.95 || c > 1.05 {
		fmt.Printf("  finding: trace.closure %.3f is outside [0.95, 1.05]: the layers do not add up to the round trip\n", c)
	}
	sort.Strings(r.absent)
	for i, a := range r.absent {
		if i == 0 || a != r.absent[i-1] {
			fmt.Printf("  absent: %s is no longer in the repository; its metric reads 0\n", a)
		}
	}
	fmt.Printf("  %d spans written to %s\n", len(r.tr.spans), tracePath)
	line, _ := json.Marshal(map[string]any{"attempted": r.attempted, "failed": r.failed, "metrics": r.metrics})
	fmt.Println(string(line))
}
