package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	mmqjp "repro"
)

// countingConn records every Write the server makes on one connection.
type countingConn struct {
	net.Conn
	mu     sync.Mutex
	writes [][]byte
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.writes = append(c.writes, append([]byte(nil), p...))
	c.mu.Unlock()
	return c.Conn.Write(p)
}

// since returns the writes made after the first n.
func (c *countingConn) since(n int) [][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([][]byte(nil), c.writes[n:]...)
}

func (c *countingConn) count() int { return len(c.since(0)) }

// countingServer is a broker whose accepted connections count their writes.
type countingServer struct {
	s     *server
	addr  string
	conns chan *countingConn
}

func startCountingServer(t *testing.T) *countingServer {
	t.Helper()
	eng := mmqjp.New(mmqjp.Options{})
	cs := &countingServer{
		s:     &server{eng: eng},
		conns: make(chan *countingConn, 1), // handed to dial, one connection at a time
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			cc := &countingConn{Conn: conn}
			cs.conns <- cc
			go cs.s.serve(cs.s.newClient(cc))
		}
	}()
	cs.addr = ln.Addr().String()
	return cs
}

// dial connects a client and returns it with the server's end.
func (cs *countingServer) dial(t *testing.T) (*testConn, *countingConn) {
	t.Helper()
	c := dialTest(t, cs.addr)
	return c, <-cs.conns
}

// subscribeN registers n copies of query and checks the acknowledgements.
func subscribeN(t *testing.T, c *testConn, n int, query string) {
	t.Helper()
	var burst bytes.Buffer
	for i := 0; i < n; i++ {
		fmt.Fprintf(&burst, "SUB %s\n", query)
	}
	if _, err := c.conn.Write(burst.Bytes()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if got := c.readLine(t); !strings.HasPrefix(got, "OK ") {
			t.Fatalf("SUB %d -> %q", i, got)
		}
	}
}

// waitWrites polls until the server has made want writes on cc since from.
func waitWrites(t *testing.T, cc *countingConn, from, want int) [][]byte {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		ws := cc.since(from)
		if len(ws) >= want {
			return ws
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d writes after %d, want %d", len(ws), from, want)
		}
		time.Sleep(time.Millisecond)
	}
}

const abJoin = "S//a->x FOLLOWED BY{x=y, 100000} S//b->y"

// TestReplyGroupIsOneWrite pins the reply path's write count: a publish's
// MATCH lines and its OK leave in one Write on the publishing connection, and
// in one Write on every other connection that owns matched queries.
func TestReplyGroupIsOneWrite(t *testing.T) {
	t.Run("sync/own", func(t *testing.T) {
		cs := startCountingServer(t)
		c, cc := cs.dial(t)
		const n = 120
		subscribeN(t, c, n, abJoin)
		c.sendLine(t, "PUB S 1 <a>k</a>")
		if got := c.readLine(t); got != "OK 0" {
			t.Fatalf("PUB a -> %q", got)
		}
		before := cc.count()
		c.sendLine(t, "PUB S 2 <b>k</b>")
		for i := 0; i < n; i++ {
			if got := c.readLine(t); !strings.HasPrefix(got, "MATCH ") {
				t.Fatalf("line %d = %q, want a MATCH", i, got)
			}
		}
		if got := c.readLine(t); got != fmt.Sprint("OK ", n) {
			t.Fatalf("after %d MATCH lines: %q", n, got)
		}
		ws := cc.since(before)
		if len(ws) != 1 {
			t.Fatalf("%d MATCH lines and their OK took %d writes, want 1", n, len(ws))
		}
		if got := bytes.Count(ws[0], []byte("\n")); got != n+1 {
			t.Errorf("the write carries %d lines, want %d", got, n+1)
		}
		if !bytes.HasSuffix(ws[0], []byte(fmt.Sprintf("\nOK %d\n", n))) {
			t.Errorf("the write does not end with OK %d: %q", n, ws[0][len(ws[0])-20:])
		}
	})
	t.Run("sync/others", func(t *testing.T) {
		cs := startCountingServer(t)
		pub, pubConn := cs.dial(t)
		b, bConn := cs.dial(t)
		c, cConn := cs.dial(t)
		const n = 50
		subscribeN(t, b, n, abJoin)
		subscribeN(t, c, n, abJoin)
		pub.sendLine(t, "PUB S 1 <a>k</a>")
		if got := pub.readLine(t); got != "OK 0" {
			t.Fatalf("PUB a -> %q", got)
		}
		before := [3]int{pubConn.count(), bConn.count(), cConn.count()}
		pub.sendLine(t, "PUB S 2 <b>k</b>")
		if got := pub.readLine(t); got != fmt.Sprint("OK ", 2*n) {
			t.Fatalf("PUB b -> %q", got)
		}
		for i, sub := range []*testConn{b, c} {
			for j := 0; j < n; j++ {
				if got := sub.readLine(t); !strings.HasPrefix(got, "MATCH ") {
					t.Fatalf("subscriber %d line %d = %q", i, j, got)
				}
			}
		}
		if ws := pubConn.since(before[0]); len(ws) != 1 || string(ws[0]) != fmt.Sprintf("OK %d\n", 2*n) {
			t.Errorf("publisher got %q, want one write of its OK", ws)
		}
		for i, cc := range []*countingConn{bConn, cConn} {
			ws := waitWrites(t, cc, before[i+1], 1)
			if len(ws) != 1 || bytes.Count(ws[0], []byte("\nMATCH "))+1 != n {
				t.Errorf("subscriber %d: %d writes, first of %d bytes; want one write of %d MATCH lines", i, len(ws), len(ws[0]), n)
			}
		}
	})
}

// TestSubBurstCoalesces sends 1 000 pipelined SUB lines: the acknowledgements
// of requests the server had already read share writes, and keep their order.
func TestSubBurstCoalesces(t *testing.T) {
	cs := startCountingServer(t)
	c, cc := cs.dial(t)
	const n = 1000
	var burst bytes.Buffer
	for i := 0; i < n; i++ {
		fmt.Fprintf(&burst, "SUB S//a%d->x FOLLOWED BY{x=y, 100} S//b->y\n", i%7)
	}
	if _, err := c.conn.Write(burst.Bytes()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if got := c.readLine(t); got != fmt.Sprint("OK ", i) {
			t.Fatalf("reply %d = %q", i, got)
		}
	}
	if got := cc.count(); got > n/8 {
		t.Errorf("%d SUB acknowledgements took %d writes, want <= %d", n, got, n/8)
	}
}

// discardConn accepts writes and never has anything to read.
type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error) { return len(p), nil }

// TestMatchEncodingDoesNotAllocate is the allocation ceiling of the reply
// path: routing and encoding a 200-match reply group into a warmed
// connection buffer from a warm piece cache (every document already
// rendered), and writing it, allocates nothing. AllocsPerRun counts the
// whole process's mallocs, and earlier tests' servers and engines may still
// be winding down; they can only add, so the path is clean if any one
// measurement reads zero.
func TestMatchEncodingDoesNotAllocate(t *testing.T) {
	s := &server{}
	c := s.newClient(discardConn{})
	matches := make([]mmqjp.Match, 200)
	for i := range matches {
		q := mmqjp.QueryID(i % 50)
		s.owners.set(q, c)
		matches[i] = mmqjp.Match{Query: q, LeftDoc: int64(1000 + i), LeftTS: 1700000000, RightDoc: 123456, RightTS: 1700000999}
	}
	group := func() { s.ackPublish(c, "S", 1, matches) }
	group() // size the two buffers, the owners scratch and the piece cache
	group()
	for i := range matches {
		for _, d := range [][2]int64{{matches[i].LeftDoc, matches[i].LeftTS}, {matches[i].RightDoc, matches[i].RightTS}} {
			if p := &c.docs[uint64(d[0])%docCacheSize]; p.doc != d[0] || p.ts != d[1] || p.n == 0 {
				t.Fatalf("document %d is not in the warm cache", d[0])
			}
		}
	}
	got := testing.AllocsPerRun(100, group)
	for try := 0; got != 0 && try < 20; try++ {
		time.Sleep(50 * time.Millisecond)
		got = testing.AllocsPerRun(100, group)
	}
	if got != 0 {
		t.Errorf("a 200-match reply group allocates %v times, want 0", got)
	}
}

// appendMatch is the reference MATCH line encoder, five integers formatted
// with strconv: the server's piece encoder (docCache.appendMatch) must
// produce the same bytes.
func appendMatch(b []byte, m *mmqjp.Match) []byte {
	b = append(b, "MATCH "...)
	b = strconv.AppendInt(b, int64(m.Query), 10)
	b = append(b, " left="...)
	b = strconv.AppendInt(b, m.LeftDoc, 10)
	b = append(b, '@')
	b = strconv.AppendInt(b, m.LeftTS, 10)
	b = append(b, " right="...)
	b = strconv.AppendInt(b, m.RightDoc, 10)
	b = append(b, '@')
	b = strconv.AppendInt(b, m.RightTS, 10)
	return append(b, '\n')
}

// BenchmarkMatchLines encodes one document's MATCH lines, reported per line:
// 200 matches of queries among 10 000, their left documents from a window of
// 500 and the document itself on the right, a new document id every
// iteration (the shape of rss_window). "strconv" is the reference encoder;
// "pieces" is the server's, prefixes from the ownership table and documents
// from the publisher's cache, which renders each new document once.
func BenchmarkMatchLines(b *testing.B) {
	const lines, window = 200, 500
	rng := rand.New(rand.NewSource(1))
	s := &server{}
	c := s.newClient(nil)
	matches := make([]mmqjp.Match, lines)
	for i := range matches {
		q := mmqjp.QueryID(rng.Intn(10000))
		s.owners.set(q, c)
		left := 100000 + rng.Int63n(window)
		matches[i] = mmqjp.Match{Query: q, LeftDoc: left, LeftTS: 1700000000 + left}
	}
	next := func(i int) {
		doc := 100000 + window + int64(i)
		for j := range matches {
			matches[j].RightDoc, matches[j].RightTS = doc, 1700000000+doc
		}
	}
	var out []byte
	b.Run("strconv", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			next(i)
			out = out[:0]
			for j := range matches {
				out = appendMatch(out, &matches[j])
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*lines), "ns/line")
	})
	b.Run("pieces", func(b *testing.B) {
		c.docs = new(docCache)
		for i := 0; i < b.N; i++ {
			next(i)
			out = out[:0]
			for j := range matches {
				o, _ := s.owners.get(matches[j].Query)
				out = c.docs.appendMatch(out, o.prefix(s.owners.prefixes), &matches[j])
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*lines), "ns/line")
	})
}

// TestReplyEncoding pins the reply text byte for byte against the fmt
// rendering the protocol was defined with.
func TestReplyEncoding(t *testing.T) {
	m := mmqjp.Match{Query: 7, LeftDoc: 12, LeftTS: 0, RightDoc: 9000000000, RightTS: 1700000000}
	want := fmt.Sprintf("MATCH %d left=%d@%d right=%d@%d\n", m.Query, m.LeftDoc, m.LeftTS, m.RightDoc, m.RightTS)
	if got := string(appendMatch(nil, &m)); got != want {
		t.Errorf("appendMatch = %q, want %q", got, want)
	}
	for _, tc := range []struct {
		r    reply
		want string
	}{
		{okReply(0), "OK 0\n"},
		{okReply(65536), "OK 65536\n"},
		{reply{text: "mmqjp: 3 queries"}, "OK mmqjp: 3 queries\n"},
		{errReply(errQuery, "unknown query 4"), "ERR EQUERY unknown query 4\n"},
		{errReply(errParse, "line 1:\r\n unexpected"), "ERR EPARSE line 1:   unexpected\n"},
	} {
		if got := string(tc.r.appendTo(nil)); got != tc.want {
			t.Errorf("%+v encodes as %q, want %q", tc.r, got, tc.want)
		}
	}
}

// fanout registers subs copies of the a/b join on c and publishes docs <a>
// documents, so that every later <b>k</b> produces subs*docs matches for c.
func fanout(t *testing.T, c, pub *testConn, subs, docs int) {
	t.Helper()
	subscribeN(t, c, subs, abJoin)
	for i := 0; i < docs; i++ {
		pub.sendLine(t, fmt.Sprintf("PUB S %d <a>k</a>", i+1))
		if got := pub.readLine(t); got != "OK 0" {
			t.Fatalf("PUB a -> %q", got)
		}
	}
}

// TestSlowReaderIsDropped: connection B subscribes and then never reads.
// Connection A's publishes keep completing promptly while B's backlog grows,
// B is dropped once it passes maxOutboundBytes, its queries are released as
// after a disconnect, and A carries on.
func TestSlowReaderIsDropped(t *testing.T) {
	for _, durable := range []bool{false, true} {
		t.Run(fmt.Sprintf("durable=%v", durable), func(t *testing.T) {
			var addr string
			if durable {
				addr, _ = startDurableServer(t, &mmqjp.MemStore{})
			} else {
				addr = startTestServer(t)
			}
			a, b := dialTest(t, addr), dialTest(t, addr)
			const perPub = 200 * 10
			fanout(t, b, a, 200, 10)

			// ~70 KB of MATCH lines per publish; the kernel takes a few MB
			// before B's backlog starts to build in the server, and B is
			// dropped a second after its socket stops taking any.
			dropped := false
			deadline := time.Now().Add(30 * time.Second)
			for i := 0; !dropped && time.Now().Before(deadline); i++ {
				start := time.Now()
				a.sendLine(t, fmt.Sprintf("PUB S %d <b>k</b>", 100+i))
				got := a.readLine(t)
				if rtt := time.Since(start); rtt > time.Second {
					t.Fatalf("PUB %d took %v behind a subscriber that does not read", i, rtt)
				}
				n, err := strconv.Atoi(strings.TrimPrefix(got, "OK "))
				switch {
				case err != nil || n > perPub:
					t.Fatalf("PUB %d -> %q", i, got)
				case n == perPub:
				case durable:
					t.Fatalf("PUB %d -> %q with B's queries orphaned, not removed", i, got)
				default:
					// B's queries are being unsubscribed one by one, or are
					// all gone.
					dropped = n == 0
				}
				if durable && i%16 == 0 {
					// Orphaned queries still match; ask who owns one.
					a.sendLine(t, "UNSUB 0")
					dropped = strings.Contains(a.readLine(t), "CLAIM it first")
				}
			}
			if !dropped {
				t.Fatal("B was never dropped")
			}

			// B's end: whatever was in flight, then the close.
			b.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
			var last string
			sc := bufio.NewScanner(b.rd)
			for sc.Scan() {
				last = sc.Text()
			}
			if err, ok := sc.Err().(net.Error); ok && err.Timeout() {
				t.Fatalf("B's connection is still open; last line %q", last)
			}
			t.Logf("B's last line: %q", last)

			// A is unaffected: a subscription of its own is matched and
			// answered correctly.
			a.sendLine(t, "SUB T//a->x FOLLOWED BY{x=y, 100} T//b->y")
			qid, ok := strings.CutPrefix(a.readLine(t), "OK ")
			if !ok {
				t.Fatalf("SUB after the drop failed")
			}
			a.sendLine(t, "PUB T 1 <a>z</a>")
			if got := a.readLine(t); got != "OK 0" {
				t.Fatalf("PUB T a -> %q", got)
			}
			a.sendLine(t, "PUB T 2 <b>z</b>")
			if got := a.readLine(t); !strings.HasPrefix(got, "MATCH "+qid+" ") {
				t.Fatalf("PUB T b -> %q, want A's MATCH", got)
			}
			if got := a.readLine(t); got != "OK 1" {
				t.Fatalf("PUB T b -> %q", got)
			}
		})
	}
}

// TestBurstToFastReaderIsDelivered: one PUBB on connection A produces three
// times maxOutboundBytes of MATCH lines for connection B, appended faster than
// any socket drains, while B reads as fast as it can. B is not a slow reader:
// it gets every line. One processor is the hard case (and the benchmark's
// server): B's drain only runs when the publishing loop is preempted.
func TestBurstToFastReaderIsDelivered(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// The server writes every reply in turn on the connection's own
	// goroutine; the subtest is named for that synchronous mode.
	t.Run("async=false", burstToFastReaderIsDelivered)
}

func burstToFastReaderIsDelivered(t *testing.T) {
	cs := startCountingServer(t)
	a, _ := cs.dial(t)
	b, _ := cs.dial(t)
	const subs, docs, batch = 200, 10, 150
	fanout(t, b, a, subs, docs)

	const want = subs * docs * batch
	read := make(chan error, 1)
	go func() {
		bytesIn := 0
		for i := 0; i < want; i++ {
			b.conn.SetReadDeadline(time.Now().Add(30 * time.Second))
			line, err := b.rd.ReadSlice('\n')
			if err != nil || !bytes.HasPrefix(line, []byte("MATCH ")) {
				read <- fmt.Errorf("B's line %d of %d = %q, %v", i, want, line, err)
				return
			}
			bytesIn += len(line)
		}
		if bytesIn < 2*maxOutboundBytes {
			read <- fmt.Errorf("the batch produced %d bytes, too few to exercise the bound %d", bytesIn, maxOutboundBytes)
			return
		}
		read <- nil
	}()

	var pubb strings.Builder
	fmt.Fprintf(&pubb, "PUBB S %d\n", batch)
	for i := 0; i < batch; i++ {
		fmt.Fprintf(&pubb, "%d <b>k</b>\n", 100+i)
	}
	if _, err := a.conn.Write([]byte(pubb.String())); err != nil {
		t.Fatal(err)
	}
	a.conn.SetReadDeadline(time.Now().Add(60 * time.Second))
	if got, err := a.rd.ReadString('\n'); got != fmt.Sprintf("OK %d\n", want) {
		t.Fatalf("PUBB -> %q, %v", got, err)
	}
	if err := <-read; err != nil {
		t.Fatal(err)
	}
	// B is still subscribed and served.
	a.sendLine(t, "PUB S 1000 <b>k</b>")
	if got := a.readLine(t); got != fmt.Sprint("OK ", subs*docs) {
		t.Fatalf("PUB after the burst -> %q", got)
	}
}

// TestOwnBacklogIsBackPressure: a connection whose own publish produces far
// more than maxOutboundBytes of MATCH lines, read through a synchronous pipe
// (so the reader is always slower than the server), is made to wait, not
// dropped: every line arrives, then the OK, and the connection stays usable.
func TestOwnBacklogIsBackPressure(t *testing.T) {
	// Replies are written synchronously, in turn, as in
	// TestBurstToFastReaderIsDelivered.
	t.Run("async=false", ownBacklogIsBackPressure)
}

func ownBacklogIsBackPressure(t *testing.T) {
	eng := mmqjp.New(mmqjp.Options{})
	s := &server{eng: eng}
	cli, srv := net.Pipe()
	defer cli.Close()
	served := make(chan struct{})
	go func() { defer close(served); s.serve(s.newClient(srv)) }()
	c := &testConn{conn: cli, rd: bufio.NewReaderSize(cli, 1<<20)}
	// net.Pipe writes complete when the server reads them, and the
	// server reads ahead of replying, so requests go out on their
	// own goroutine while this one reads.
	send := func(text string) {
		go func() { cli.Write([]byte(text)) }()
	}

	const subs, docs, batch = 200, 10, 150
	var setup strings.Builder
	for i := 0; i < subs; i++ {
		fmt.Fprintf(&setup, "SUB %s\n", abJoin)
	}
	for i := 0; i < docs; i++ {
		fmt.Fprintf(&setup, "PUB S %d <a>k</a>\n", i+1)
	}
	send(setup.String())
	for i := 0; i < subs+docs; i++ {
		if got := c.readLine(t); !strings.HasPrefix(got, "OK ") {
			t.Fatalf("setup reply %d = %q", i, got)
		}
	}

	var pubb strings.Builder
	fmt.Fprintf(&pubb, "PUBB S %d\n", batch)
	for i := 0; i < batch; i++ {
		fmt.Fprintf(&pubb, "%d <b>k</b>\n", 100+i)
	}
	send(pubb.String())
	const want = subs * docs * batch
	bytesIn := 0
	for i := 0; i < want; i++ {
		cli.SetReadDeadline(time.Now().Add(10 * time.Second))
		line, err := c.rd.ReadSlice('\n')
		if err != nil {
			t.Fatalf("after %d of %d MATCH lines (%d bytes): %v", i, want, bytesIn, err)
		}
		if !bytes.HasPrefix(line, []byte("MATCH ")) {
			t.Fatalf("line %d = %q, want a MATCH", i, line)
		}
		bytesIn += len(line)
	}
	if bytesIn < 2*maxOutboundBytes {
		t.Fatalf("the batch produced %d bytes, too few to exercise the bound %d", bytesIn, maxOutboundBytes)
	}
	if got := c.readLine(t); got != fmt.Sprint("OK ", want) {
		t.Fatalf("batch acknowledgement = %q", got)
	}
	send("STATS\nQUIT\n")
	if got := c.readLine(t); !strings.HasPrefix(got, "OK sequential=false queries=") {
		t.Fatalf("STATS after the batch -> %q", got)
	}
	<-served
}
