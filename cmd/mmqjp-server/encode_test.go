package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	mmqjp "repro"
)

// recordConn keeps every byte the server writes to it.
type recordConn struct {
	net.Conn
	mu  sync.Mutex
	buf bytes.Buffer
}

func (c *recordConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.buf.Write(p)
}

// take returns what was written since the last take.
func (c *recordConn) take() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	b := bytes.Clone(c.buf.Bytes())
	c.buf.Reset()
	return b
}

// TestMatchLinesEqualStrconv holds the frame encoder — prefixes from the
// ownership table, frame tails rendered once per publish — to the strconv
// reference appendMatch, byte for byte.
func TestMatchLinesEqualStrconv(t *testing.T) {
	// Unit level: results routed by one publisher to itself and to another
	// connection, whose lines the publisher renders too. A result has
	// several frames of Stage-2 runs, each shared by queries out of frame
	// order, and a frame of single-block matches, all of its entries on
	// it; one document appears under two timestamps, and the ids and
	// timestamps reach both signs and every width.
	t.Run("pieces", func(t *testing.T) {
		s := &server{}
		self, selfConn := s.newClient(nil), &recordConn{}
		other, otherConn := s.newClient(nil), &recordConn{}
		self.conn, other.conn = selfConn, otherConn
		qids := []mmqjp.QueryID{0, 9, 10, 99, 100, 65535, 65536, 99999}
		for i, q := range qids {
			s.owners.set(q, [2]*client{self, other}[i%2])
		}
		docs := []int64{77, -77, 0, 1, 9, 10, 1<<40 + 77, -1 << 40, math.MinInt64, math.MaxInt64}
		stamps := []int64{0, 1, -5, 1700000000, math.MinInt64, math.MaxInt64}
		rng := rand.New(rand.NewSource(29))
		for round := 0; round < 8; round++ {
			var ms mmqjp.Matches
			right := docs[rng.Intn(len(docs))]
			rightTS := stamps[rng.Intn(len(stamps))]
			for f, n := 0, 1+rng.Intn(6); f < n; f++ {
				ms.Frames = append(ms.Frames, mmqjp.Frame{
					LeftDoc: docs[rng.Intn(len(docs))], LeftTS: stamps[rng.Intn(len(stamps))],
					RightDoc: right, RightTS: rightTS,
				})
			}
			if round%2 == 0 {
				ms.Frames = append(ms.Frames, mmqjp.Frame{LeftDoc: right, RightDoc: right, LeftTS: rightTS, RightTS: rightTS})
			}
			for i, n := 0, 20+rng.Intn(200); i < n; i++ {
				ms.Entries = append(ms.Entries, mmqjp.MatchEntry{
					Query: qids[rng.Intn(len(qids))],
					Frame: int32(rng.Intn(len(ms.Frames))),
				})
			}
			var want [2][]byte
			for i := range ms.Entries {
				o, _ := s.owners.get(ms.Entries[i].Query)
				k := 0
				if o.c == other {
					k = 1
				}
				m := ms.Match(i)
				want[k] = appendMatch(want[k], &m)
			}
			s.deliver(self, &ms)
			self.flush()
			other.flush()
			for k, got := range [][]byte{selfConn.take(), otherConn.take()} {
				if !bytes.Equal(got, want[k]) {
					t.Fatalf("round %d, connection %d: frame encoder differs from strconv\ngot:  %.300q\nwant: %.300q", round, k, got, want[k])
				}
			}
		}
	})

	// End to end: a publisher and a subscriber that both own queries, ids
	// moving across UNSUB → SUB, and a window short enough that most
	// documents join a few predecessors only, against a reference engine fed
	// the same requests and rendered with appendMatch.
	t.Run("unsub-resub", func(t *testing.T) {
		addr := startTestServer(t)
		ref := mmqjp.New(mmqjp.Options{})
		conns := []*testConn{dialTest(t, addr), dialTest(t, addr)}
		owner := map[mmqjp.QueryID]int{}
		request := func(k int, line string) {
			conns[k].sendLine(t, line)
			if got := conns[k].readLine(t); !strings.HasPrefix(got, "OK ") {
				t.Fatalf("%q -> %q", line, got)
			}
		}
		sub := func(k int, q string) {
			id, err := ref.Subscribe(q)
			if err != nil {
				t.Fatal(err)
			}
			owner[id] = k
			request(k, "SUB "+q)
		}
		unsub := func(k int, id mmqjp.QueryID) {
			if err := ref.Unsubscribe(id); err != nil {
				t.Fatal(err)
			}
			request(k, fmt.Sprint("UNSUB ", id))
		}
		const join = "S//a->x FOLLOWED BY{x=y, %d} S//b->y"
		for i := 0; i < 6; i++ {
			sub(i%2, fmt.Sprintf(join, 3+i))
		}
		unsub(1, 1)
		unsub(0, 2)
		sub(1, fmt.Sprintf(join, 4))
		sub(0, "S//b->y JOIN{y=x, 5} S//a->x")

		var want, reply [2][]byte
		const docs = 1300
		for i := 1; i <= docs; i++ {
			tag := [2]string{"a", "b"}[i%3/2]
			xml := fmt.Sprintf("<%s>k%d</%s>", tag, i%2, tag)
			res, err := ref.PublishDoc("S", nil, mmqjp.WithXML(xml, int64(i), int64(i)))
			if err != nil {
				t.Fatal(err)
			}
			ms := res.Batches[0]
			for j := range ms {
				k := owner[ms[j].Query]
				want[k] = appendMatch(want[k], &ms[j])
			}
			want[0] = fmt.Appendf(want[0], "OK %d\n", len(ms))
			conns[0].sendLine(t, fmt.Sprintf("PUB S %d %s", i, xml))
			reply[0] = readThrough(t, conns[0], reply[0], "OK ")
		}
		reply[1] = readBytes(t, conns[1], len(want[1]))
		for k := range want {
			if !bytes.Equal(reply[k], want[k]) {
				t.Fatalf("connection %d: %d bytes differ from the strconv rendering of the reference engine's %d", k, len(reply[k]), len(want[k]))
			}
		}
		if n := bytes.Count(want[1], []byte("MATCH ")); n < docs {
			t.Fatalf("the subscriber got %d MATCH lines over %d documents: too few to compare", n, docs)
		}
	})

	// Durable mode: subscriptions restored from a snapshot are adopted by
	// CLAIM on a new connection, out of id order and across a gap, and their
	// first lines pair a document published after the restart with ones
	// published before it, which the new connection has never rendered.
	t.Run("claim-after-restart", func(t *testing.T) {
		store := &mmqjp.MemStore{}
		addr, s1 := startDurableServer(t, store)
		c := dialTest(t, addr)
		for i := 0; i < 4; i++ {
			c.sendLine(t, "SUB S//a->x FOLLOWED BY{x=y, 1000} S//b->y")
			c.readLine(t)
		}
		c.sendLine(t, "UNSUB 1")
		c.readLine(t)
		for i := 1; i <= 3; i++ {
			c.sendLine(t, fmt.Sprintf("PUB S %d <a>k</a>", 100*i))
			if got := c.readLine(t); got != "OK 0" {
				t.Fatalf("PUB a -> %q", got)
			}
		}
		if err := s1.saveSnapshot(); err != nil {
			t.Fatal(err)
		}

		addr2, _ := startDurableServer(t, store)
		c2 := dialTest(t, addr2)
		for _, req := range []string{"CLAIM 3", "CLAIM 0", "CLAIM 2", "CLAIM 1"} {
			c2.sendLine(t, req)
			got := c2.readLine(t)
			if req == "CLAIM 1" {
				if !strings.HasPrefix(got, "ERR EQUERY ") {
					t.Fatalf("%s -> %q, want the unsubscribed id refused", req, got)
				}
				continue
			}
			if got != "OK "+strings.TrimPrefix(req, "CLAIM ") {
				t.Fatalf("%s -> %q", req, got)
			}
		}
		c2.sendLine(t, "PUB S 400 <b>k</b>")
		var want []byte
		for _, q := range []int{0, 2, 3} {
			for doc := 1; doc <= 3; doc++ {
				want = fmt.Appendf(want, "MATCH %d left=%d@%d right=4@400\n", q, doc, 100*doc)
			}
		}
		want = append(want, "OK 9\n"...)
		if got := readBytes(t, c2, len(want)); !bytes.Equal(got, want) {
			t.Fatalf("after the restart:\ngot:  %q\nwant: %q", got, want)
		}
	})
}

// readThrough appends c's lines to b up to and including the first that
// starts with final.
func readThrough(t *testing.T, c *testConn, b []byte, final string) []byte {
	t.Helper()
	for {
		line := c.readLine(t)
		b = append(b, line+"\n"...)
		if strings.HasPrefix(line, final) {
			return b
		}
	}
}

// readBytes reads exactly n bytes from c.
func readBytes(t *testing.T, c *testConn, n int) []byte {
	t.Helper()
	c.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	b := make([]byte, n)
	if k, err := io.ReadFull(c.rd, b); err != nil {
		t.Fatalf("after %d of %d bytes: %v", k, n, err)
	}
	return b
}

// TestReplyStreamsIdenticalAcrossIngestShapes sends one script — windowed
// joins in both orientations, a single-block query, churn, documents
// matching many predecessors and none — through PUB and through PUBB with
// one document per batch. The reply streams must be byte-identical. A last
// run sends the documents as one PUBB: its MATCH lines are the same bytes,
// followed by one OK with their total.
func TestReplyStreamsIdenticalAcrossIngestShapes(t *testing.T) {
	type doc struct {
		ts  int
		xml string
	}
	var subs []string
	for i := 0; i < 12; i++ {
		subs = append(subs, fmt.Sprintf("S//a->x FOLLOWED BY{x=y, %d} S//b->y", 20+10*(i%4)))
	}
	subs = append(subs, "S//b->y JOIN{y=x, 30} S//a->x", "S//a->x")
	rng := rand.New(rand.NewSource(7))
	var docs []doc
	for i := 1; i <= 120; i++ {
		tag := [2]string{"a", "b"}[rng.Intn(2)]
		docs = append(docs, doc{5 * i, fmt.Sprintf("<%s>v%d</%s>", tag, rng.Intn(3), tag)})
	}
	// script renders the session: batch 0 publishes each document with a
	// PUB, batch n with PUBBs of n documents; churn replaces a subscription
	// before the 61st document.
	script := func(batch int, churn bool) string {
		var b strings.Builder
		for _, q := range subs {
			fmt.Fprintf(&b, "SUB %s\n", q)
		}
		for i := 0; i < len(docs); i += max(batch, 1) {
			if churn && i == 60 {
				b.WriteString("UNSUB 3\nSUB S//a->x FOLLOWED BY{x=y, 25} S//b->y\n")
			}
			if batch == 0 {
				fmt.Fprintf(&b, "PUB S %d %s\n", docs[i].ts, docs[i].xml)
				continue
			}
			part := docs[i:min(i+batch, len(docs))]
			fmt.Fprintf(&b, "PUBB S %d\n", len(part))
			for _, d := range part {
				fmt.Fprintf(&b, "%d %s\n", d.ts, d.xml)
			}
		}
		b.WriteString("QUIT\n")
		return b.String()
	}
	run := func(text string) []byte {
		addr := startTestServer(t)
		c := dialTest(t, addr)
		if _, err := io.WriteString(c.conn, text); err != nil {
			t.Fatal(err)
		}
		c.conn.SetReadDeadline(time.Now().Add(20 * time.Second))
		out, err := io.ReadAll(c.rd)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := run(script(0, true))
	if n := bytes.Count(want, []byte("\nMATCH ")); n < 500 {
		t.Fatalf("the script produces %d MATCH lines, too few to compare", n)
	}
	if got := run(script(1, true)); !bytes.Equal(got, want) {
		t.Errorf("PUBB 1: reply stream differs from PUB's (%d vs %d bytes)", len(got), len(want))
	}

	matchLines := func(stream []byte) (lines []byte, n int) {
		for _, line := range bytes.SplitAfter(stream, []byte("\n")) {
			if bytes.HasPrefix(line, []byte("MATCH ")) {
				lines = append(lines, line...)
				n++
			}
		}
		return lines, n
	}
	wantLines, n := matchLines(run(script(0, false)))
	got := run(script(len(docs), false))
	if gotLines, _ := matchLines(got); !bytes.Equal(gotLines, wantLines) {
		t.Error("one PUBB: MATCH lines differ from PUB's")
	}
	if !bytes.HasSuffix(got, []byte(fmt.Sprintf("\nOK %d\n", n))) {
		t.Errorf("one PUBB does not end with OK %d", n)
	}
}
