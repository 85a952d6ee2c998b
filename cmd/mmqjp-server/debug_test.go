package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	mmqjp "repro"
	"repro/internal/core"
)

// startDebugTestServer runs a broker with the observability sidecar
// attached and returns both addresses.
func startDebugTestServer(t *testing.T) (brokerAddr, debugAddr string) {
	t.Helper()
	s := &server{}
	s.m = newServerMetrics(func() *mmqjp.Engine { return s.eng })
	if _, err := s.initEngine(s.engineOptions()); err != nil {
		t.Fatal(err)
	}
	brokerAddr = serveOn(t, s)
	debugAddr, err := s.startDebugServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return brokerAddr, debugAddr
}

func httpGet(t *testing.T, url string) (int, string) {
	t.Helper()
	client := http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

// lineRead reads one reply line under a deadline.
func lineRead(conn net.Conn, rd *bufio.Reader) (string, error) {
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	line, err := rd.ReadString('\n')
	return strings.TrimSpace(line), err
}

// TestServerMetricsHealthzUnderLoad scrapes /metrics and /healthz
// concurrently with publish load from several connections, whose Stage 1
// runs side by side, and subscribe/unsubscribe churn — the CI race job runs
// this under -race, so any unsynchronized access between the hot path, the
// scrape-time stat readers and the churn surfaces here.
func TestServerMetricsHealthzUnderLoad(t *testing.T) {
	brokerAddr, debugAddr := startDebugTestServer(t)

	const publishers = 3
	const pubs = 30
	var wg sync.WaitGroup
	errs := make(chan error, publishers+2)
	stop := make(chan struct{})

	// Publishers: PUB bursts on private streams, every request sent before
	// the first reply is read.
	for i := 0; i < publishers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := net.DialTimeout("tcp", brokerAddr, 2*time.Second)
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			rd := bufio.NewReader(conn)
			stream := fmt.Sprintf("S%d", i)
			fmt.Fprintf(conn, "SUB %s//a->x JOIN{x=y, 1000000} %s//b->y\n", stream, stream)
			if resp, err := lineRead(conn, rd); err != nil || !strings.HasPrefix(resp, "OK ") {
				errs <- fmt.Errorf("publisher %d: SUB -> %q, %v", i, resp, err)
				return
			}
			for p := 0; p < pubs; p++ {
				xml := "<a>k</a>"
				if p%2 == 1 {
					xml = "<b>k</b>"
				}
				fmt.Fprintf(conn, "PUB %s %d %s\n", stream, p+1, xml)
			}
			acks := 0
			for acks < pubs {
				resp, err := lineRead(conn, rd)
				if err != nil {
					errs <- fmt.Errorf("publisher %d: after %d acks: %v", i, acks, err)
					return
				}
				if strings.HasPrefix(resp, "OK ") {
					acks++
				}
			}
		}(i)
	}

	// Churner: subscribe and immediately unsubscribe until the scraper is
	// done, so scrape-time engine reads race live template adds/removes.
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := net.DialTimeout("tcp", brokerAddr, 2*time.Second)
		if err != nil {
			errs <- err
			return
		}
		defer conn.Close()
		rd := bufio.NewReader(conn)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			fmt.Fprintf(conn, "SUB C//a->x JOIN{x=y, 100} C//b->y\n")
			resp, err := lineRead(conn, rd)
			if err != nil || !strings.HasPrefix(resp, "OK ") {
				errs <- fmt.Errorf("churn %d: SUB -> %q, %v", i, resp, err)
				return
			}
			fmt.Fprintf(conn, "UNSUB %s\n", strings.TrimPrefix(resp, "OK "))
			if resp, err = lineRead(conn, rd); err != nil || !strings.HasPrefix(resp, "OK ") {
				errs <- fmt.Errorf("churn %d: UNSUB -> %q, %v", i, resp, err)
				return
			}
		}
	}()

	// Scraper: hammer /metrics and /healthz while the load runs.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 0; i < 20; i++ {
			if code, body := httpGet(t, "http://"+debugAddr+"/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
				errs <- fmt.Errorf("healthz scrape %d: %d %q", i, code, body)
				return
			}
			if code, _ := httpGet(t, "http://"+debugAddr+"/metrics"); code != http.StatusOK {
				errs <- fmt.Errorf("metrics scrape %d: status %d", i, code)
				return
			}
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// After the load: the exposition is well-formed and reflects it.
	code, body := httpGet(t, "http://"+debugAddr+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("final /metrics status %d", code)
	}
	for _, want := range []string{
		"# TYPE mmqjp_documents_total counter",
		"# TYPE mmqjp_stage1_seconds histogram",
		"mmqjp_stage1_seconds_bucket{le=\"+Inf\"}",
		"mmqjp_outbound_queue_bytes",
		"mmqjp_witness_plans_total",
		"mmqjp_stream_publish_total{stream=\"S0\"} " + fmt.Sprint(pubs),
		"mmqjp_stream_matches_total{stream=\"S0\"}",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("final /metrics missing %q", want)
		}
	}
	// The per-document histograms saw every published document.
	var stage1Count int
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "mmqjp_stage1_seconds_count ") {
			fmt.Sscanf(line, "mmqjp_stage1_seconds_count %d", &stage1Count)
		}
	}
	if stage1Count < publishers*pubs {
		t.Errorf("stage1 histogram count = %d, want >= %d", stage1Count, publishers*pubs)
	}
}

// TestServerHealthzDebugEndpoints checks the sidecar's other routes: a pprof
// index renders, and /healthz answers fast on an idle engine.
func TestServerHealthzDebugEndpoints(t *testing.T) {
	_, debugAddr := startDebugTestServer(t)
	if code, body := httpGet(t, "http://"+debugAddr+"/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Errorf("/healthz -> %d %q", code, body)
	}
	if code, body := httpGet(t, "http://"+debugAddr+"/debug/pprof/"); code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ -> %d (goroutine link present: %v)", code, strings.Contains(body, "goroutine"))
	}
	if code, body := httpGet(t, "http://"+debugAddr+"/metrics"); code != http.StatusOK || !strings.Contains(body, "mmqjp_queries") {
		t.Errorf("/metrics -> %d (mmqjp_queries present: %v)", code, strings.Contains(body, "mmqjp_queries"))
	}
}

// metricValue reads one unlabelled integer sample from a /metrics body.
func metricValue(t *testing.T, body, name string) int64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			var v int64
			if _, err := fmt.Sscanf(rest, "%d", &v); err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("/metrics has no sample %s", name)
	return 0
}

// TestServerReplyPathMetrics checks the reply-path metric set: bytes and
// writes count what the sockets were handed (their ratio is the coalescing
// factor), the queue gauge is zero once everything is written, and a
// subscriber that stops reading shows up in the queue gauge and then in the
// drop counter.
func TestServerReplyPathMetrics(t *testing.T) {
	s := &server{}
	s.m = newServerMetrics(func() *mmqjp.Engine { return s.eng })
	if _, err := s.initEngine(s.engineOptions()); err != nil {
		t.Fatal(err)
	}
	brokerAddr := serveOn(t, s)
	debugAddr, err := s.startDebugServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	scrape := func() string {
		code, body := httpGet(t, "http://"+debugAddr+"/metrics")
		if code != http.StatusOK {
			t.Fatalf("/metrics status %d", code)
		}
		return body
	}

	// One connection, 100 subscriptions, one matching pair of documents:
	// every reply byte the client receives is counted, in far fewer writes
	// than lines.
	a := dialTest(t, brokerAddr)
	const subs = 100
	subscribeN(t, a, subs, abJoin)
	received := 0
	for i := 0; i < subs; i++ {
		received += len(fmt.Sprintf("OK %d\n", i))
	}
	a.sendLine(t, "PUB S 1 <a>k</a>")
	a.sendLine(t, "PUB S 2 <b>k</b>")
	for lines := 0; lines < subs+2; lines++ {
		received += len(a.readLine(t)) + 1
	}
	body := scrape()
	for _, want := range []string{
		"# TYPE mmqjp_reply_bytes_total counter",
		"# TYPE mmqjp_reply_writes_total counter",
		"# TYPE mmqjp_outbound_queue_bytes gauge",
		"# TYPE mmqjp_slow_reader_drops_total counter",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if got := metricValue(t, body, "mmqjp_reply_bytes_total"); got != int64(received) {
		t.Errorf("mmqjp_reply_bytes_total = %d, the client received %d bytes", got, received)
	}
	if got := metricValue(t, body, "mmqjp_reply_writes_total"); got < 2 || got > subs/4 {
		t.Errorf("mmqjp_reply_writes_total = %d for %d reply lines, want a few", got, 2*subs+2)
	}
	if got := metricValue(t, body, "mmqjp_outbound_queue_bytes"); got != 0 {
		t.Errorf("mmqjp_outbound_queue_bytes = %d with every reply read", got)
	}
	if got := metricValue(t, body, "mmqjp_slow_reader_drops_total"); got != 0 {
		t.Errorf("mmqjp_slow_reader_drops_total = %d before any drop", got)
	}

	// A subscriber on a synchronous pipe that stops reading: nothing the
	// server queues for it leaves, so the gauge shows its backlog until the
	// bound drops it.
	cli, srv := net.Pipe()
	defer cli.Close()
	go s.serve(s.newClient(srv))
	b := &testConn{conn: cli, rd: bufio.NewReader(cli)}
	go func() {
		for i := 0; i < subs; i++ {
			fmt.Fprintf(cli, "SUB %s\n", abJoin)
		}
	}()
	for i := 0; i < subs; i++ {
		if got := b.readLine(t); !strings.HasPrefix(got, "OK ") {
			t.Fatalf("SUB on the pipe -> %q", got)
		}
	}
	sawBacklog := false
	for i := 0; i < 5000; i++ {
		a.sendLine(t, fmt.Sprintf("PUB S %d <b>k</b>", 10+i))
		for got := a.readLine(t); !strings.HasPrefix(got, "OK "); got = a.readLine(t) {
			if !strings.HasPrefix(got, "MATCH ") {
				t.Fatalf("PUB %d -> %q", i, got)
			}
		}
		body = scrape()
		sawBacklog = sawBacklog || metricValue(t, body, "mmqjp_outbound_queue_bytes") > 0
		if metricValue(t, body, "mmqjp_slow_reader_drops_total") == 1 {
			break
		}
	}
	if !sawBacklog {
		t.Error("mmqjp_outbound_queue_bytes never showed the stalled subscriber's backlog")
	}
	if got := metricValue(t, body, "mmqjp_slow_reader_drops_total"); got != 1 {
		t.Fatalf("mmqjp_slow_reader_drops_total = %d after %d bytes queued on a stalled subscriber", got, maxOutboundBytes)
	}
	deadline := time.Now().Add(5 * time.Second)
	for metricValue(t, scrape(), "mmqjp_outbound_queue_bytes") != 0 {
		if time.Now().After(deadline) {
			t.Fatal("mmqjp_outbound_queue_bytes did not return to zero after the drop")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestServerWindowStateMetrics checks the join-state metric set end to end: a
// windowed subscription fed ten windows' worth of documents shows its window
// collections and their dropped rows as counters, the live state as gauges
// that stay near the window instead of following the stream, and the same
// numbers in the STATS line.
func TestServerWindowStateMetrics(t *testing.T) {
	s := &server{}
	s.m = newServerMetrics(func() *mmqjp.Engine { return s.eng })
	if _, err := s.initEngine(s.engineOptions()); err != nil {
		t.Fatal(err)
	}
	brokerAddr := serveOn(t, s)
	debugAddr, err := s.startDebugServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	const window, docs = 20, 200
	c := dialTest(t, brokerAddr)
	c.sendLine(t, fmt.Sprintf("SUB S//a->x FOLLOWED BY{x=y, %d} S//a->y", window))
	c.readLine(t)
	for i := 1; i <= docs; i++ {
		c.sendLine(t, fmt.Sprintf("PUB S %d <a>k%d</a>", i, i))
		c.readLine(t)
	}
	code, body := httpGet(t, "http://"+debugAddr+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{
		"# TYPE mmqjp_window_gcs_total counter",
		"# TYPE mmqjp_gc_rows_dropped_total counter",
		"# TYPE mmqjp_state_docs gauge",
		"# TYPE mmqjp_state_rbin_rows gauge",
		"# TYPE mmqjp_state_rroot_rows gauge",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	gcs := metricValue(t, body, "mmqjp_window_gcs_total")
	dropped := metricValue(t, body, "mmqjp_gc_rows_dropped_total")
	stateDocs := metricValue(t, body, "mmqjp_state_docs")
	rdoc := metricValue(t, body, "mmqjp_state_rdoc_rows")
	if gcs < 3 || gcs > docs {
		t.Errorf("mmqjp_window_gcs_total = %d over %d documents with window %d", gcs, docs, window)
	}
	// One Rdoc row per document: what was merged is live or was dropped.
	if stateDocs < window || stateDocs > 4*window || rdoc != stateDocs {
		t.Errorf("mmqjp_state_docs = %d, rdoc rows = %d, want equal and near the window %d", stateDocs, rdoc, window)
	}
	if rroot := metricValue(t, body, "mmqjp_state_rroot_rows"); dropped != 2*(docs-stateDocs) || rroot != stateDocs {
		t.Errorf("rows dropped = %d, rroot rows = %d with %d of %d documents live", dropped, rroot, stateDocs, docs)
	}
	c.sendLine(t, "STATS")
	stats := c.readLine(t)
	if want := fmt.Sprintf("window_gcs=%d gc_rows_dropped=%d state_docs=%d state_rbin_rows=0 state_rdoc_rows=%d state_rroot_rows=%d", gcs, dropped, stateDocs, rdoc, stateDocs); !strings.Contains(stats, want) {
		t.Errorf("STATS = %q, want it to contain %q", stats, want)
	}
}

// TestServerMemoryGauges checks the memory gauges end to end: the collector's
// live heap and CPU share and the interner's size appear on /metrics and in
// the STATS line, the subscription gauge counts at least the text of the live
// subscriptions, and it returns to zero when the last subscription has left.
func TestServerMemoryGauges(t *testing.T) {
	brokerAddr, debugAddr := startDebugTestServer(t)
	c := dialTest(t, brokerAddr)
	subs := []string{
		"S//a->x FOLLOWED BY{x=y, 20} S//a->y",
		"S//a->x[./b->u] JOIN{u=v, ROWS 5} S//c->y[./d->v] PUBLISH out",
		"S//a->x",
	}
	text := 0
	var ids []string
	for _, q := range subs {
		c.sendLine(t, "SUB "+q)
		ids = append(ids, strings.TrimPrefix(c.readLine(t), "OK "))
		text += len(q)
	}
	_, body := httpGet(t, "http://"+debugAddr+"/metrics")
	for _, want := range []string{
		"# TYPE mmqjp_heap_live_bytes gauge",
		"# TYPE mmqjp_gc_cpu_fraction gauge",
		"# TYPE mmqjp_subscription_bytes gauge",
		"# TYPE mmqjp_interned_symbols gauge",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	retained := metricValue(t, body, "mmqjp_subscription_bytes")
	if retained <= int64(text) || retained > int64(text)+1024 {
		t.Errorf("mmqjp_subscription_bytes = %d for %d bytes of query text in %d subscriptions", retained, text, len(subs))
	}
	// The interner holds at least the names the subscriptions used.
	interned := metricValue(t, body, "mmqjp_interned_symbols")
	if interned < 4 {
		t.Errorf("mmqjp_interned_symbols = %d after subscribing on elements a, b, c and d", interned)
	}
	c.sendLine(t, "STATS")
	stats := c.readLine(t)
	for _, want := range []string{fmt.Sprintf("subscription_bytes=%d", retained), "heap_live_bytes=", "gc_cpu_fraction="} {
		if !strings.Contains(stats, want) {
			t.Errorf("STATS = %q, want it to contain %q", stats, want)
		}
	}
	// The interner's gauge ends the line; it only grows.
	_, last, _ := strings.Cut(stats, " interned_symbols=")
	if n, err := strconv.ParseInt(last, 10, 64); err != nil || n < interned {
		t.Errorf("STATS ends with interned_symbols=%q, want a number >= %d", last, interned)
	}
	for _, id := range ids {
		c.sendLine(t, "UNSUB "+id)
		if got := c.readLine(t); !strings.HasPrefix(got, "OK") {
			t.Fatalf("UNSUB %s -> %q", id, got)
		}
	}
	_, body = httpGet(t, "http://"+debugAddr+"/metrics")
	if left := metricValue(t, body, "mmqjp_subscription_bytes"); left != 0 {
		t.Errorf("mmqjp_subscription_bytes = %d after every subscription left, want 0", left)
	}
}

// TestServerMetricsOneSnapshotPerScrape checks that a scrape takes one
// engine snapshot, whatever the number of engine-statistics families: one
// instant per scrape, and one pass through the engine's lock.
func TestServerMetricsOneSnapshotPerScrape(t *testing.T) {
	s := &server{}
	s.m = newServerMetrics(func() *mmqjp.Engine { return s.eng })
	var calls atomic.Int64
	source := s.m.stats
	s.m.stats = func() mmqjp.EngineStats { calls.Add(1); return source() }
	if _, err := s.initEngine(s.engineOptions()); err != nil {
		t.Fatal(err)
	}
	debugAddr, err := s.startDebugServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	for scrape := int64(1); scrape <= 3; scrape++ {
		if code, _ := httpGet(t, "http://"+debugAddr+"/metrics"); code != http.StatusOK {
			t.Fatalf("/metrics status %d", code)
		}
		if got := calls.Load(); got != scrape {
			t.Fatalf("%d scrapes called the stats source %d times", scrape, got)
		}
	}
}

// TestServerStatsCoverEveryStatistic walks the declared statistics and finds
// each in the STATS reply as name=value and on /metrics as a family named by
// its kind.
func TestServerStatsCoverEveryStatistic(t *testing.T) {
	brokerAddr, debugAddr := startDebugTestServer(t)
	c := dialTest(t, brokerAddr)
	c.sendLine(t, "STATS")
	stats := " " + strings.TrimPrefix(c.readLine(t), "OK ")
	_, body := httpGet(t, "http://"+debugAddr+"/metrics")
	suffix := map[core.StatKind]string{core.StatCounter: "_total", core.StatDuration: "_seconds_total", core.StatGauge: ""}
	for _, f := range core.StatFields(reflect.TypeOf(mmqjp.EngineStats{})) {
		if !strings.Contains(stats, " "+f.Name+"=") {
			t.Errorf("STATS lacks %s=: %q", f.Name, stats)
		}
		if family := "mmqjp_" + f.Name + suffix[f.Kind]; !strings.Contains(body, "\n"+family+" ") {
			t.Errorf("/metrics has no sample of %s", family)
		}
	}
}

// TestMetricsTableMatchesDesign holds DESIGN.md's metric table to the
// registered set: every family the server registers is in the table, and
// the table names none the server does not register.
func TestMetricsTableMatchesDesign(t *testing.T) {
	eng := mmqjp.New(mmqjp.Options{})
	var buf bytes.Buffer
	newServerMetrics(func() *mmqjp.Engine { return eng }).writeMetrics(&buf)
	registered := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^# TYPE mmqjp_(\S+) `).FindAllStringSubmatch(buf.String(), -1) {
		registered[m[1]] = true
	}

	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, _ := strings.Cut(string(design), "\n## Observability & durability\n")
	section, _, _ = strings.Cut(section, "\n## ")
	documented := map[string]bool{}
	name := regexp.MustCompile("`([a-z0-9_]+)(?:\\{[a-z]+\\})?`")
	for _, line := range strings.Split(section, "\n") {
		if cells := strings.Split(line, "|"); len(cells) > 2 && strings.HasPrefix(line, "| `") {
			for _, m := range name.FindAllStringSubmatch(cells[1], -1) {
				documented[m[1]] = true
			}
		}
	}
	if len(registered) == 0 || len(documented) == 0 {
		t.Fatalf("found %d registered and %d documented families", len(registered), len(documented))
	}
	for f := range registered {
		if !documented[f] {
			t.Errorf("mmqjp_%s is registered but missing from DESIGN.md's metric table", f)
		}
	}
	for f := range documented {
		if !registered[f] {
			t.Errorf("DESIGN.md's metric table names mmqjp_%s, which the server does not register", f)
		}
	}
}
