package main

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	mmqjp "repro"
)

// startTestServer runs the broker on an ephemeral port and returns its
// address.
func startTestServer(t *testing.T) string {
	t.Helper()
	return startTestServerMode(t, false)
}

// startTestServerMode runs the broker in synchronous or -async mode.
func startTestServerMode(t *testing.T, async bool) string {
	t.Helper()
	eng := mmqjp.New(mmqjp.Options{Processor: mmqjp.ProcessorViewMat, PipelineDepth: 4})
	s := &server{eng: eng, async: async}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close(); eng.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go s.serve(s.newClient(conn))
		}
	}()
	return ln.Addr().String()
}

type testConn struct {
	conn net.Conn
	rd   *bufio.Reader
}

func dialTest(t *testing.T, addr string) *testConn {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &testConn{conn: conn, rd: bufio.NewReader(conn)}
}

func (c *testConn) sendLine(t *testing.T, line string) {
	t.Helper()
	if _, err := fmt.Fprintln(c.conn, line); err != nil {
		t.Fatal(err)
	}
}

func (c *testConn) readLine(t *testing.T) string {
	t.Helper()
	c.conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	line, err := c.rd.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	return strings.TrimSpace(line)
}

func TestServerSubPubMatch(t *testing.T) {
	addr := startTestServer(t)
	c := dialTest(t, addr)

	c.sendLine(t, "SUB S//a->x JOIN{x=y, 100} S//b->y")
	if got := c.readLine(t); got != "OK 0" {
		t.Fatalf("SUB -> %q", got)
	}
	c.sendLine(t, "PUB S 1 <a>v</a>")
	if got := c.readLine(t); got != "OK 0" {
		t.Fatalf("first PUB -> %q", got)
	}
	c.sendLine(t, "PUB S 2 <b>v</b>")
	// Expect the MATCH push and the PUB ack, in either order.
	got1, got2 := c.readLine(t), c.readLine(t)
	lines := got1 + "\n" + got2
	if !strings.Contains(lines, "MATCH 0 left=1@1 right=2@2") {
		t.Errorf("missing match push: %q %q", got1, got2)
	}
	if !strings.Contains(lines, "OK 1") {
		t.Errorf("missing pub ack: %q %q", got1, got2)
	}
}

// TestServerPubBatch publishes a PUBB batch and expects the per-document
// match pushes followed by the single batch ack.
func TestServerPubBatch(t *testing.T) {
	addr := startTestServer(t)
	c := dialTest(t, addr)

	c.sendLine(t, "SUB S//a->x FOLLOWED BY{x=y, 100} S//b->y")
	if got := c.readLine(t); got != "OK 0" {
		t.Fatalf("SUB -> %q", got)
	}
	c.sendLine(t, "PUBB S 3")
	c.sendLine(t, "1 <a>k</a>")
	c.sendLine(t, "2 <b>k</b>")
	c.sendLine(t, "3 <b>k</b>")
	matches, acked := 0, false
	for i := 0; i < 3; i++ {
		switch got := c.readLine(t); {
		case strings.HasPrefix(got, "MATCH 0 left=1@1"):
			matches++
		case got == "OK 2":
			acked = true
		default:
			t.Fatalf("unexpected line %q", got)
		}
	}
	if matches != 2 || !acked {
		t.Errorf("got %d matches, acked=%v, want 2 matches and OK 2", matches, acked)
	}
}

// TestServerPubBatchErrors checks that a malformed batch is rejected whole
// and leaves the connection line-synchronized and the engine state untouched.
func TestServerPubBatchErrors(t *testing.T) {
	addr := startTestServer(t)
	c := dialTest(t, addr)

	c.sendLine(t, "SUB S//a->x FOLLOWED BY{x=y, 100} S//b->y")
	if got := c.readLine(t); got != "OK 0" {
		t.Fatalf("SUB -> %q", got)
	}
	c.sendLine(t, "PUBB S")
	if got := c.readLine(t); !strings.HasPrefix(got, "ERR") {
		t.Errorf("missing count -> %q", got)
	}
	c.sendLine(t, "PUBB S notanumber")
	if got := c.readLine(t); !strings.HasPrefix(got, "ERR") {
		t.Errorf("bad count -> %q", got)
	}
	// An absurd count is rejected up front instead of sizing an
	// allocation from the header.
	c.sendLine(t, "PUBB S 9000000000")
	if got := c.readLine(t); !strings.HasPrefix(got, "ERR") {
		t.Errorf("oversized count -> %q", got)
	}
	// One bad timestamp rejects the batch; the good <a> line must not have
	// entered the join state.
	c.sendLine(t, "PUBB S 2")
	c.sendLine(t, "1 <a>k</a>")
	c.sendLine(t, "notanumber <b>k</b>")
	if got := c.readLine(t); !strings.HasPrefix(got, "ERR") {
		t.Errorf("bad batch line -> %q", got)
	}
	// A malformed XML document is caught by the parser and also rejects
	// the batch whole.
	c.sendLine(t, "PUBB S 2")
	c.sendLine(t, "1 <a>k</a>")
	c.sendLine(t, "2 <unclosed>")
	if got := c.readLine(t); !strings.HasPrefix(got, "ERR") {
		t.Errorf("bad batch xml -> %q", got)
	}
	// Still line-synchronized, and the rejected <a> documents are absent:
	// a following <b> has nothing to join with.
	c.sendLine(t, "PUB S 5 <b>k</b>")
	if got := c.readLine(t); got != "OK 0" {
		t.Errorf("post-batch PUB -> %q (rejected batch leaked state?)", got)
	}
}

// TestServerNegativeTimestampRejected pins the regression where PUB/PUBB
// accepted "-5" as a timestamp (bare strconv.ParseInt): a negative ts would
// sort before every in-window document and invert eviction order. Both paths
// must answer ERR EPROTO and admit nothing.
func TestServerNegativeTimestampRejected(t *testing.T) {
	addr := startTestServer(t)
	c := dialTest(t, addr)

	c.sendLine(t, "SUB S//a->x JOIN{x=y, 100} S//b->y")
	if got := c.readLine(t); got != "OK 0" {
		t.Fatalf("SUB -> %q", got)
	}
	c.sendLine(t, "PUB S -5 <a>k</a>")
	if got := c.readLine(t); !strings.HasPrefix(got, "ERR EPROTO") {
		t.Errorf("negative PUB ts -> %q, want ERR EPROTO", got)
	}
	// Batch path: one negative line rejects the batch whole.
	c.sendLine(t, "PUBB S 2")
	c.sendLine(t, "1 <a>k</a>")
	c.sendLine(t, "-1 <a>k</a>")
	if got := c.readLine(t); !strings.HasPrefix(got, "ERR EPROTO") {
		t.Errorf("negative PUBB ts -> %q, want ERR EPROTO", got)
	}
	// Still line-synchronized, and neither rejected <a> entered the join
	// state: a following <b> has nothing to join with.
	c.sendLine(t, "PUB S 3 <b>k</b>")
	if got := c.readLine(t); got != "OK 0" {
		t.Errorf("post-rejection PUB -> %q (rejected document leaked state?)", got)
	}
}

func TestServerErrors(t *testing.T) {
	addr := startTestServer(t)
	c := dialTest(t, addr)

	c.sendLine(t, "SUB not[valid")
	if got := c.readLine(t); !strings.HasPrefix(got, "ERR") {
		t.Errorf("bad SUB -> %q", got)
	}
	c.sendLine(t, "PUB S notanumber <a/>")
	if got := c.readLine(t); !strings.HasPrefix(got, "ERR") {
		t.Errorf("bad ts -> %q", got)
	}
	c.sendLine(t, "PUB S 1 <unclosed>")
	if got := c.readLine(t); !strings.HasPrefix(got, "ERR") {
		t.Errorf("bad xml -> %q", got)
	}
	c.sendLine(t, "NOSUCH verb")
	if got := c.readLine(t); !strings.HasPrefix(got, "ERR") {
		t.Errorf("bad verb -> %q", got)
	}
	c.sendLine(t, "STATS")
	if got := c.readLine(t); !strings.HasPrefix(got, "OK ") {
		t.Errorf("STATS -> %q", got)
	}
}

// TestServerLineTooLong is the satellite bugfix check: a request line over
// the 1 MB bound is answered with an ERR instead of silently dropping the
// connection, and the connection stays line-synchronized and usable.
func TestServerLineTooLong(t *testing.T) {
	addr := startTestServer(t)
	c := dialTest(t, addr)

	c.sendLine(t, "SUB S//a->x FOLLOWED BY{x=y, 100} S//b->y")
	if got := c.readLine(t); got != "OK 0" {
		t.Fatalf("SUB -> %q", got)
	}
	huge := "PUB S 1 <a>" + strings.Repeat("v", maxLineBytes) + "</a>"
	c.conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
	if _, err := fmt.Fprintln(c.conn, huge); err != nil {
		t.Fatal(err)
	}
	c.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	line, err := c.rd.ReadString('\n')
	if err != nil {
		t.Fatalf("connection dropped after over-long line: %v", err)
	}
	if got := strings.TrimSpace(line); !strings.HasPrefix(got, "ERR") || !strings.Contains(got, "exceeds") {
		t.Fatalf("over-long line -> %q, want ERR ... exceeds ...", got)
	}
	// The connection is still line-synchronized: a normal publish works and
	// nothing from the rejected line leaked into the join state.
	c.sendLine(t, "PUB S 2 <a>k</a>")
	if got := c.readLine(t); got != "OK 0" {
		t.Fatalf("PUB after over-long line -> %q", got)
	}
	c.sendLine(t, "PUB S 3 <b>k</b>")
	got1, got2 := c.readLine(t), c.readLine(t)
	if !strings.Contains(got1+"\n"+got2, "OK 1") {
		t.Errorf("join across the over-long line lost: %q %q", got1, got2)
	}

	// An over-long document line inside a PUBB batch rejects the batch but
	// keeps the connection synchronized too.
	c2 := dialTest(t, addr)
	c2.sendLine(t, "PUBB S 2")
	c2.sendLine(t, "1 <a>k</a>")
	c2.conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
	if _, err := fmt.Fprintln(c2.conn, "2 <a>"+strings.Repeat("v", maxLineBytes)+"</a>"); err != nil {
		t.Fatal(err)
	}
	c2.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	line, err = c2.rd.ReadString('\n')
	if err != nil {
		t.Fatalf("connection dropped after over-long batch line: %v", err)
	}
	if got := strings.TrimSpace(line); !strings.HasPrefix(got, "ERR") {
		t.Fatalf("over-long batch line -> %q, want ERR", got)
	}
	c2.sendLine(t, "STATS")
	if got := c2.readLine(t); !strings.HasPrefix(got, "OK ") {
		t.Errorf("STATS after rejected batch -> %q", got)
	}
}

// TestServerAsyncPub drives the -async mode: PUB replies arrive in request
// order with the match counts of the fully processed documents, pipelined
// PUBs on one connection are all acknowledged, and error replies keep their
// position in the order.
func TestServerAsyncPub(t *testing.T) {
	addr := startTestServerMode(t, true)
	c := dialTest(t, addr)

	c.sendLine(t, "SUB S//a->x FOLLOWED BY{x=y, 1000} S//b->y")
	if got := c.readLine(t); got != "OK 0" {
		t.Fatalf("SUB -> %q", got)
	}
	// Pipelined publishes: send everything before reading any reply. The
	// replier acknowledges in admission order, delivering each MATCH push
	// before the corresponding OK.
	c.sendLine(t, "PUB S 1 <a>k</a>")
	c.sendLine(t, "PUB S 2 <unclosed>")
	c.sendLine(t, "PUB S 3 <b>k</b>")
	if got := c.readLine(t); got != "OK 0" {
		t.Fatalf("first async PUB -> %q", got)
	}
	if got := c.readLine(t); !strings.HasPrefix(got, "ERR") {
		t.Fatalf("bad-xml async PUB -> %q, want ERR in request order", got)
	}
	if got := c.readLine(t); !strings.HasPrefix(got, "MATCH 0 left=1@1") {
		t.Fatalf("missing MATCH push before the ack: %q", got)
	}
	if got := c.readLine(t); got != "OK 1" {
		t.Fatalf("matching async PUB -> %q", got)
	}
	// UNSUB still barriers correctly against the pipeline.
	c.sendLine(t, "UNSUB 0")
	if got := c.readLine(t); got != "OK 0" {
		t.Fatalf("UNSUB -> %q", got)
	}
	c.sendLine(t, "PUB S 4 <b>k</b>")
	if got := c.readLine(t); got != "OK 0" {
		t.Fatalf("PUB after UNSUB -> %q", got)
	}
}

// TestServerUnsubAfterPubKeepsItsMatches is the regression test for an
// -async UNSUB overtaking an earlier PUB: a PUB and the UNSUB of a query that
// PUB matches, sent in one write. The query is still subscribed when the
// document is processed, so its MATCH line must come before the PUB's OK 1,
// in both modes. Under -async the UNSUB used to release the query's owner
// before the replier routed the PUB's matches, which were then counted but
// never sent. Each round subscribes afresh on a stream of its own.
func TestServerUnsubAfterPubKeepsItsMatches(t *testing.T) {
	for _, async := range []bool{false, true} {
		c := dialTest(t, startTestServerMode(t, async))
		for round := 0; round < 20; round++ {
			c.sendLine(t, fmt.Sprintf("SUB R%d//a->x JOIN{x=y, 100} R%[1]d//b->y", round))
			qid := strings.TrimPrefix(c.readLine(t), "OK ")
			c.sendLine(t, fmt.Sprintf("PUB R%d 1 <a>v</a>", round))
			if got := c.readLine(t); got != "OK 0" {
				t.Fatalf("async=%v: first PUB -> %q", async, got)
			}
			if _, err := fmt.Fprintf(c.conn, "PUB R%d 2 <b>v</b>\nUNSUB %s\n", round, qid); err != nil {
				t.Fatal(err)
			}
			for _, want := range []string{"MATCH " + qid + " ", "OK 1", "OK " + qid} {
				if got := c.readLine(t); !strings.HasPrefix(got, want) {
					t.Fatalf("async=%v, round %d: got %q, want %q...", async, round, got, want)
				}
			}
		}
	}
}

// TestServerRejectedPubKeepsConnection sends documents the XML scanner
// rejects — malformed, and well-formed but outside its subset — in both
// modes: each is answered ERR EPARSE with the parser's message, and the
// connection answers the next request.
func TestServerRejectedPubKeepsConnection(t *testing.T) {
	for _, async := range []bool{false, true} {
		c := dialTest(t, startTestServerMode(t, async))
		for _, doc := range []string{"<a><b></a>", "<a>&nbsp;</a>", "<a>\xff</a>", "<!DOCTYPE a><a/>", "<a>&#xD800;</a>"} {
			c.sendLine(t, "PUB S 1 "+doc)
			if got := c.readLine(t); !strings.HasPrefix(got, "ERR EPARSE ") || !strings.Contains(got, "xmldoc: ") {
				t.Errorf("async=%v: PUB %q -> %q, want ERR EPARSE ... xmldoc: ...", async, doc, got)
			}
		}
		c.sendLine(t, "PUB S 2 <a>v</a>")
		if got := c.readLine(t); got != "OK 0" {
			t.Errorf("async=%v: PUB after the rejected ones -> %q", async, got)
		}
	}
}

// TestServerAsyncPubThenBatch checks per-connection document order across
// the two ingest paths in async mode: a PUBB must not enter the join state
// ahead of the connection's earlier async PUB (the server drains the
// pipeline before the synchronous batch), so the FOLLOWED BY join across
// the boundary always fires.
func TestServerAsyncPubThenBatch(t *testing.T) {
	addr := startTestServerMode(t, true)
	c := dialTest(t, addr)

	c.sendLine(t, "SUB S//a->x FOLLOWED BY{x=y, 100} S//b->y")
	if got := c.readLine(t); got != "OK 0" {
		t.Fatalf("SUB -> %q", got)
	}
	c.sendLine(t, "PUB S 1 <a>k</a>")
	c.sendLine(t, "PUBB S 1")
	c.sendLine(t, "2 <b>k</b>")
	var acks []string
	matched := false
	for len(acks) < 2 {
		switch got := c.readLine(t); {
		case strings.HasPrefix(got, "MATCH 0 left=1@1"):
			matched = true
		case strings.HasPrefix(got, "OK "):
			acks = append(acks, got)
		default:
			t.Fatalf("unexpected line %q", got)
		}
	}
	if !matched || acks[0] != "OK 0" || acks[1] != "OK 1" {
		t.Fatalf("batch overtook the async publish: acks=%q matched=%v (want OK 0, OK 1, with a MATCH)", acks, matched)
	}
}

// TestServerAsyncQuitFlushesReplies checks that a QUIT (or disconnect)
// right behind a burst of async publishes does not lose their replies: the
// server drains the replier before closing the connection.
func TestServerAsyncQuitFlushesReplies(t *testing.T) {
	addr := startTestServerMode(t, true)
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "SUB S//a->x JOIN{x=y, 100} S//b->y\nPUB S 1 <a>v</a>\nPUB S 2 <b>v</b>\nQUIT\n")
	var lines []string
	rd := bufio.NewReader(conn)
	for {
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		line, err := rd.ReadString('\n')
		if err != nil {
			break // connection closed by the server after the flush
		}
		lines = append(lines, strings.TrimSpace(line))
	}
	want := []string{"OK 0", "OK 0", "MATCH 0 left=1@1 right=2@2", "OK 1"}
	if len(lines) != len(want) {
		t.Fatalf("QUIT lost replies: got %q, want %q", lines, want)
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Errorf("reply %d = %q, want %q", i, lines[i], want[i])
		}
	}
}

// TestServerAsyncConcurrentClients hammers the async server from many
// connections at once (the CI race job runs this under -race): every PUB
// must be acknowledged in per-connection request order and the private
// streams must keep matching.
func TestServerAsyncConcurrentClients(t *testing.T) {
	addr := startTestServerMode(t, true)

	const clients = 5
	const pubs = 16
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			rd := bufio.NewReader(conn)
			readLine := func() (string, error) {
				conn.SetReadDeadline(time.Now().Add(5 * time.Second))
				line, err := rd.ReadString('\n')
				return strings.TrimSpace(line), err
			}
			stream := fmt.Sprintf("S%d", i)
			fmt.Fprintf(conn, "SUB %s//a->x JOIN{x=y, 1000000} %s//b->y\n", stream, stream)
			if resp, err := readLine(); err != nil || !strings.HasPrefix(resp, "OK ") {
				errs <- fmt.Errorf("client %d: SUB -> %q, %v", i, resp, err)
				return
			}
			// Fire every publish before reading a single reply, then count
			// acks and matches.
			for p := 0; p < pubs; p++ {
				xml := "<a>k</a>"
				if p%2 == 1 {
					xml = "<b>k</b>"
				}
				fmt.Fprintf(conn, "PUB %s %d %s\n", stream, p+1, xml)
			}
			acks, matched := 0, 0
			for acks < pubs {
				resp, err := readLine()
				if err != nil {
					errs <- fmt.Errorf("client %d: after %d acks: %v", i, acks, err)
					return
				}
				switch {
				case strings.HasPrefix(resp, "MATCH "):
					matched++
				case strings.HasPrefix(resp, "OK "):
					acks++
				default:
					errs <- fmt.Errorf("client %d: unexpected reply %q", i, resp)
					return
				}
			}
			if matched == 0 {
				errs <- fmt.Errorf("client %d: no matches delivered", i)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestServerMatchesRoutedToOwner(t *testing.T) {
	addr := startTestServer(t)
	sub := dialTest(t, addr)
	pub := dialTest(t, addr)

	sub.sendLine(t, "SUB S//a->x FOLLOWED BY{x=y, 100} S//b->y")
	if got := sub.readLine(t); got != "OK 0" {
		t.Fatalf("SUB -> %q", got)
	}
	pub.sendLine(t, "PUB S 1 <a>k</a>")
	if got := pub.readLine(t); got != "OK 0" {
		t.Fatalf("PUB -> %q", got)
	}
	pub.sendLine(t, "PUB S 5 <b>k</b>")
	if got := pub.readLine(t); got != "OK 1" {
		t.Fatalf("PUB -> %q", got)
	}
	// The subscriber connection receives the push.
	if got := sub.readLine(t); !strings.HasPrefix(got, "MATCH 0") {
		t.Errorf("subscriber got %q", got)
	}
}

// TestServerConcurrentClients drives SUB and PUB from many connections at
// once; the engine's internal synchronization (not a server-side lock
// around every call) must keep the shared state consistent. The CI race
// job runs this under -race.
func TestServerConcurrentClients(t *testing.T) {
	addr := startTestServer(t)

	const clients = 6
	const pubs = 20
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			rd := bufio.NewReader(conn)
			send := func(line string) (string, error) {
				if _, err := fmt.Fprintln(conn, line); err != nil {
					return "", err
				}
				conn.SetReadDeadline(time.Now().Add(5 * time.Second))
				resp, err := rd.ReadString('\n')
				return strings.TrimSpace(resp), err
			}
			// Each client registers its own query on a private
			// stream, so its matches are delivered only to it and
			// the response stream stays in lockstep.
			stream := fmt.Sprintf("S%d", i)
			resp, err := send(fmt.Sprintf("SUB %s//a->x JOIN{x=y, 1000000} %s//b->y", stream, stream))
			if err != nil || !strings.HasPrefix(resp, "OK ") {
				errs <- fmt.Errorf("client %d: SUB -> %q, %v", i, resp, err)
				return
			}
			matched := 0
			for p := 0; p < pubs; p++ {
				xml := "<a>k</a>"
				if p%2 == 1 {
					xml = "<b>k</b>"
				}
				resp, err := send(fmt.Sprintf("PUB %s %d %s", stream, p+1, xml))
				if err != nil {
					errs <- fmt.Errorf("client %d: PUB -> %v", i, err)
					return
				}
				// Drain MATCH pushes until the PUB ack arrives.
				for strings.HasPrefix(resp, "MATCH ") {
					matched++
					conn.SetReadDeadline(time.Now().Add(5 * time.Second))
					line, err := rd.ReadString('\n')
					if err != nil {
						errs <- fmt.Errorf("client %d: drain -> %v", i, err)
						return
					}
					resp = strings.TrimSpace(line)
				}
				if !strings.HasPrefix(resp, "OK ") && !strings.HasPrefix(resp, "ERR") {
					errs <- fmt.Errorf("client %d: PUB -> %q", i, resp)
					return
				}
			}
			if matched == 0 {
				errs <- fmt.Errorf("client %d: no matches delivered", i)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestServerUnsub(t *testing.T) {
	addr := startTestServer(t)
	c := dialTest(t, addr)
	c.sendLine(t, "SUB S//a->x JOIN{x=y, 100} S//b->y")
	resp := c.readLine(t)
	if !strings.HasPrefix(resp, "OK ") {
		t.Fatalf("SUB reply %q", resp)
	}
	qid := strings.TrimPrefix(resp, "OK ")

	// Another connection may not remove someone else's subscription.
	other := dialTest(t, addr)
	other.sendLine(t, "UNSUB "+qid)
	if resp := other.readLine(t); !strings.HasPrefix(resp, "ERR") {
		t.Fatalf("foreign UNSUB reply %q, want ERR", resp)
	}

	// A match still arrives while subscribed.
	c.sendLine(t, "PUB S 1 <a>v</a>")
	if resp := c.readLine(t); resp != "OK 0" {
		t.Fatalf("PUB reply %q", resp)
	}
	c.sendLine(t, "PUB S 2 <b>v</b>")
	first, second := c.readLine(t), c.readLine(t)
	if !strings.HasPrefix(first, "MATCH ") && !strings.HasPrefix(second, "MATCH ") {
		t.Fatalf("no MATCH delivered before unsubscribe: %q / %q", first, second)
	}

	// Unsubscribe by the owner succeeds; further publishes match nothing.
	c.sendLine(t, "UNSUB "+qid)
	if resp := c.readLine(t); resp != "OK "+qid {
		t.Fatalf("UNSUB reply %q", resp)
	}
	c.sendLine(t, "PUB S 3 <a>v</a>")
	if resp := c.readLine(t); resp != "OK 0" {
		t.Fatalf("PUB after UNSUB reply %q", resp)
	}
	c.sendLine(t, "PUB S 4 <b>v</b>")
	if resp := c.readLine(t); resp != "OK 0" {
		t.Fatalf("publish matched an unsubscribed query: %q", resp)
	}

	// Double unsubscribe and malformed ids are rejected.
	c.sendLine(t, "UNSUB "+qid)
	if resp := c.readLine(t); !strings.HasPrefix(resp, "ERR") {
		t.Fatalf("double UNSUB reply %q, want ERR", resp)
	}
	c.sendLine(t, "UNSUB notanumber")
	if resp := c.readLine(t); !strings.HasPrefix(resp, "ERR") {
		t.Fatalf("malformed UNSUB reply %q, want ERR", resp)
	}
	c.sendLine(t, "UNSUB 4242")
	if resp := c.readLine(t); !strings.HasPrefix(resp, "ERR") {
		t.Fatalf("unknown-id UNSUB reply %q, want ERR", resp)
	}
}

func TestServerDisconnectUnsubscribes(t *testing.T) {
	addr := startTestServer(t)
	a := dialTest(t, addr)
	a.sendLine(t, "SUB S//a->x JOIN{x=y, 100} S//b->y")
	if resp := a.readLine(t); !strings.HasPrefix(resp, "OK ") {
		t.Fatalf("SUB reply %q", resp)
	}
	a.conn.Close() // drop the connection without QUIT

	// The server unsubscribes the dead connection's queries; poll STATS
	// until the cleanup (asynchronous to the close) lands.
	b := dialTest(t, addr)
	deadline := time.Now().Add(2 * time.Second)
	for {
		b.sendLine(t, "STATS")
		resp := b.readLine(t)
		if strings.Contains(resp, " queries=0 ") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("disconnected client's query never unsubscribed: %q", resp)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
