package main

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"reflect"
	"runtime/metrics"
	"sync"
	"time"

	mmqjp "repro"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sym"
)

// Observability sidecar: -debug-addr starts a second, HTTP listener — kept
// off the line-protocol port so operators can firewall it separately —
// serving
//
//	/metrics       Prometheus text exposition of the metric set below
//	/healthz       engine liveness: a round trip through the lock every
//	               document's Stage 2 holds (Engine.Ping) under a
//	               deadline; 200 while documents can enter the join
//	               state, 503 once a publish is stuck inside it
//	/debug/pprof/  the standard Go profiling endpoints
//
// Metric set (all prefixed mmqjp_): one family per field of
// mmqjp.EngineStats, named from its json name — <name>_total for a counter,
// <name>_seconds_total for a duration, <name> for a gauge — and read from
// one Engine.Stats snapshot per scrape; then the server's own:
//
//	heap_live_bytes, gc_cpu_fraction      the Go collector's view, read from
//	                                      runtime/metrics on scrape: heap
//	                                      marked live by the last cycle, and
//	                                      the share of the process's CPU time
//	                                      the collector has taken
//	interned_symbols                      strings in the process-global
//	                                      symbol interner (sym.Count):
//	                                      element and attribute names, not
//	                                      join values (state_values)
//	stage1_seconds, stage2_seconds,       per-document hot-path wall-time
//	merge_seconds, gc_seconds             histograms (Options.OnDocument)
//	stream_publish_total{stream},         per-stream publish and match
//	stream_matches_total{stream}          counters (server-side)
//	reply_bytes_total, reply_writes_total reply bytes handed to client sockets
//	                                      and the writes that carried them;
//	                                      bytes/writes is the coalescing factor
//	outbound_queue_bytes                  reply bytes queued and not yet handed
//	                                      to a socket write, summed over
//	                                      connections
//	slow_reader_drops_total               connections dropped for falling
//	                                      maxOutboundBytes behind on matches
//	                                      and not reading
//	snapshots_total, snapshot_errors_total, durable-mode snapshot activity
//	snapshot_seconds                      and duration histogram

// healthzTimeout bounds the /healthz round trip. A healthy engine answers
// within one document's Stage 2; the deadline only has to be comfortably
// above a worst-case one, or a batch's.
const healthzTimeout = 5 * time.Second

// serverMetrics is the server's metric set. A nil *serverMetrics is valid
// and records nothing, so the wire protocol works without the sidecar.
type serverMetrics struct {
	reg *obs.Registry

	// stats is the engine snapshot source; a scrape calls it once and every
	// engine-statistics family reads the result, snap, under mu.
	stats func() mmqjp.EngineStats
	mu    sync.Mutex
	snap  reflect.Value

	stage1, stage2, merge, gc *obs.Histogram
	streamPub, streamMatches  *obs.CounterVec

	replyBytes, replyWrites, slowReaderDrops *obs.Counter
	outboundQueue                            *obs.Gauge

	snapshots, snapshotErrors *obs.Counter
	snapshotSeconds           *obs.Histogram
}

// newServerMetrics builds the registry for eng. Engine statistics are read
// at scrape time; per-document histograms are fed by the
// Options.OnDocument hook (see onDocument).
func newServerMetrics(eng func() *mmqjp.Engine) *serverMetrics {
	r := obs.NewRegistry()
	m := &serverMetrics{reg: r, stats: func() mmqjp.EngineStats { return eng().Stats() }}
	for _, f := range core.StatFields(reflect.TypeOf(mmqjp.EngineStats{})) {
		read := func() float64 { return f.Float(m.snap) }
		switch f.Kind {
		case core.StatCounter:
			r.CounterFunc("mmqjp_"+f.Name+"_total", f.Help, read)
		case core.StatDuration:
			r.CounterFunc("mmqjp_"+f.Name+"_seconds_total", f.Help, read)
		default:
			r.GaugeFunc("mmqjp_"+f.Name, f.Help, read)
		}
	}
	r.GaugeFunc("mmqjp_heap_live_bytes", "Heap memory occupied by objects the last collection marked live.",
		func() float64 { live, _ := collectorGauges(); return live })
	r.GaugeFunc("mmqjp_gc_cpu_fraction", "Share of the process's CPU time spent in the garbage collector since start.",
		func() float64 { _, frac := collectorGauges(); return frac })
	r.GaugeFunc("mmqjp_interned_symbols", "Strings in the process-global symbol interner: element and attribute names, never released. Join values are the join state's (mmqjp_state_values).",
		func() float64 { return float64(sym.Count()) })
	m.stage1 = r.Histogram("mmqjp_stage1_seconds",
		"Per-document Stage-1 wall time (shared-NFA match, witness construction).", obs.DurationBuckets)
	m.stage2 = r.Histogram("mmqjp_stage2_seconds",
		"Per-document Stage-2 wall time (per-template join evaluation).", obs.DurationBuckets)
	m.merge = r.Histogram("mmqjp_merge_seconds",
		"Per-document state-merge wall time (Algorithm 2).", obs.DurationBuckets)
	m.gc = r.Histogram("mmqjp_gc_seconds",
		"Per-document window-GC wall time.", obs.DurationBuckets)
	m.streamPub = r.CounterVec("mmqjp_stream_publish_total", "Documents published, by stream.", "stream")
	m.streamMatches = r.CounterVec("mmqjp_stream_matches_total", "Matches triggered by publishes, by stream.", "stream")
	m.replyBytes = r.Counter("mmqjp_reply_bytes_total", "Reply bytes (MATCH, OK and ERR lines) handed to client sockets.")
	m.replyWrites = r.Counter("mmqjp_reply_writes_total", "Socket writes that carried reply bytes; bytes per write is the coalescing factor.")
	m.outboundQueue = r.Gauge("mmqjp_outbound_queue_bytes", "Reply bytes queued for clients and not yet handed to a socket write, summed over connections.")
	m.slowReaderDrops = r.Counter("mmqjp_slow_reader_drops_total", "Connections dropped for falling too far behind on matches other connections produced.")
	m.snapshots = r.Counter("mmqjp_snapshots_total", "Snapshots saved to the durable store.")
	m.snapshotErrors = r.Counter("mmqjp_snapshot_errors_total", "Snapshot saves that failed.")
	m.snapshotSeconds = r.Histogram("mmqjp_snapshot_seconds", "Snapshot save duration.", obs.DurationBuckets)
	return m
}

// writeMetrics renders one scrape. It takes one engine snapshot, so every
// engine-statistics family reports the same instant and the scrape takes
// the engine's lock once; scrapes are serialized, and the exposition is
// written to w only after the lock is released.
func (m *serverMetrics) writeMetrics(w io.Writer) {
	var buf bytes.Buffer
	m.mu.Lock()
	m.snap = reflect.ValueOf(m.stats())
	m.reg.WritePrometheus(&buf)
	m.mu.Unlock()
	w.Write(buf.Bytes())
}

// collectorGauges reads the Go collector's two gauges from runtime/metrics:
// the bytes the last cycle marked live, and collector CPU seconds over the
// process's total. A metric this toolchain does not have reads as 0.
func collectorGauges() (heapLive, gcCPUFraction float64) {
	samples := []metrics.Sample{
		{Name: "/gc/heap/live:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	if samples[0].Value.Kind() == metrics.KindUint64 {
		heapLive = float64(samples[0].Value.Uint64())
	}
	if gc, total := samples[1].Value, samples[2].Value; gc.Kind() == metrics.KindFloat64 &&
		total.Kind() == metrics.KindFloat64 && total.Float64() > 0 {
		gcCPUFraction = gc.Float64() / total.Float64()
	}
	return heapLive, gcCPUFraction
}

// statsLine is the STATS reply: every engine statistic as name=value, then
// the process gauges — the collector's and the interner's — under their
// metric names.
func statsLine(s mmqjp.EngineStats) string {
	live, frac := collectorGauges()
	return fmt.Sprintf("%s heap_live_bytes=%.0f gc_cpu_fraction=%.4f interned_symbols=%d", s, live, frac, sym.Count())
}

// onDocument is the Options.OnDocument hook: one histogram observation per
// hot-path phase per document.
func (m *serverMetrics) onDocument(t mmqjp.DocTimings) {
	if m == nil {
		return
	}
	m.stage1.Observe(t.Stage1.Seconds())
	m.stage2.Observe(t.Stage2.Seconds())
	m.merge.Observe(t.Merge.Seconds())
	m.gc.Observe(t.GC.Seconds())
}

// published records documents entering and matches leaving one publish call.
func (m *serverMetrics) published(stream string, docs, matches int) {
	if m == nil {
		return
	}
	m.streamPub.With(stream).Add(int64(docs))
	m.streamMatches.With(stream).Add(int64(matches))
}

// replyQueued records reply bytes entering (or, negative, leaving) the
// connections' outbound buffers.
func (m *serverMetrics) replyQueued(delta int) {
	if m == nil {
		return
	}
	m.outboundQueue.Add(int64(delta))
}

// replyWritten records n reply bytes handed to a socket in one write.
func (m *serverMetrics) replyWritten(n int) {
	if m == nil {
		return
	}
	m.replyBytes.Add(int64(n))
	m.replyWrites.Inc()
}

// slowReaderDropped records one connection dropped by the slow-reader policy.
func (m *serverMetrics) slowReaderDropped() {
	if m == nil {
		return
	}
	m.slowReaderDrops.Inc()
}

// snapshotSaved records one snapshot attempt.
func (m *serverMetrics) snapshotSaved(d time.Duration, err error) {
	if m == nil {
		return
	}
	if err != nil {
		m.snapshotErrors.Inc()
		return
	}
	m.snapshots.Inc()
	m.snapshotSeconds.Observe(d.Seconds())
}

// startDebugServer serves /metrics, /healthz and /debug/pprof on addr. It
// returns the bound listener address (addr may use port 0).
func (s *server) startDebugServer(addr string) (string, error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.m.writeMetrics(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		if err := s.eng.Ping(healthzTimeout); err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	go func() {
		if err := http.Serve(ln, mux); err != nil {
			log.Printf("debug server: %v", err)
		}
	}()
	return ln.Addr().String(), nil
}
