package main

import (
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	mmqjp "repro"
)

// startDurableServer runs the broker in durable mode against the given
// store, restoring any snapshot it holds, and returns the address and the
// server (for saveSnapshot and engine shutdown).
func startDurableServer(t *testing.T, store mmqjp.Store) (string, *server) {
	t.Helper()
	s := &server{durable: true, store: store}
	if _, err := s.initEngine(s.engineOptions()); err != nil {
		t.Fatal(err)
	}
	addr := serveOn(t, s)
	return addr, s
}

// serveOn accepts connections for s on an ephemeral port.
func serveOn(t *testing.T, s *server) string {
	t.Helper()
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
			go s.serve(s.newClient(conn))
		}
	}()
	return ln.Addr().String()
}

// TestServerErrorCodes pins the stable machine-readable code on each error
// class: clients are documented to dispatch on the first ERR token.
func TestServerErrorCodes(t *testing.T) {
	addr := startTestServer(t)
	c := dialTest(t, addr)

	for _, tc := range []struct {
		req, code string
	}{
		{"NOSUCH verb", "EPROTO"},
		{"PUB S", "EPROTO"},
		{"PUB S notanumber <a/>", "EPROTO"},
		{"PUBB S", "EPROTO"},
		{"PUBB S notanumber", "EPROTO"},
		{"PUBB S 9000000000", "ELIMIT"},
		{"SUB not[valid", "EPARSE"},
		{"PUB S 1 <unclosed>", "EPARSE"},
		{"UNSUB notanumber", "EPROTO"},
		{"UNSUB 4242", "EQUERY"},
		{"CLAIM notanumber", "EPROTO"},
		{"CLAIM 4242", "EQUERY"},
	} {
		c.sendLine(t, tc.req)
		if got := c.readLine(t); !strings.HasPrefix(got, "ERR "+tc.code+" ") {
			t.Errorf("%q -> %q, want ERR %s ...", tc.req, got, tc.code)
		}
	}
}

// TestServerDurableClaim covers the durable ownership lifecycle on one
// running server: a disconnect orphans the subscription instead of removing
// it, matches are withheld while orphaned, CLAIM re-attaches a new
// connection, and the claim/unsub ownership rules hold.
func TestServerDurableClaim(t *testing.T) {
	addr, _ := startDurableServer(t, &mmqjp.MemStore{})

	a := dialTest(t, addr)
	a.sendLine(t, "SUB S//a->x FOLLOWED BY{x=y, 1000} S//b->y")
	resp := a.readLine(t)
	if !strings.HasPrefix(resp, "OK ") {
		t.Fatalf("SUB -> %q", resp)
	}
	qid := strings.TrimPrefix(resp, "OK ")

	// A second connection cannot claim or unsubscribe a live query.
	b := dialTest(t, addr)
	b.sendLine(t, "CLAIM "+qid)
	if got := b.readLine(t); !strings.HasPrefix(got, "ERR EQUERY") {
		t.Fatalf("foreign CLAIM -> %q, want ERR EQUERY", got)
	}
	// Claiming a query you already own is an idempotent OK.
	a.sendLine(t, "CLAIM "+qid)
	if got := a.readLine(t); got != "OK "+qid {
		t.Fatalf("self CLAIM -> %q", got)
	}

	// Disconnect orphans the query: it survives in the engine with a nil
	// owner. Poll UNSUB until dropClient (asynchronous to the close) has
	// landed — the reply switches from "another connection" to the
	// orphaned-query error, which also checks that UNSUB of an unclaimed
	// query demands a CLAIM first.
	a.conn.Close()
	deadline := time.Now().Add(2 * time.Second)
	for {
		b.sendLine(t, "UNSUB "+qid)
		got := b.readLine(t)
		if !strings.HasPrefix(got, "ERR EQUERY") {
			t.Fatalf("UNSUB while unclaimed -> %q, want ERR EQUERY", got)
		}
		if strings.Contains(got, "CLAIM") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("disconnect never orphaned query %s: %q", qid, got)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// While orphaned, publishes still feed the query's join state but no
	// MATCH is delivered anywhere.
	b.sendLine(t, "PUB S 1 <a>k</a>")
	if got := b.readLine(t); got != "OK 0" {
		t.Fatalf("PUB while orphaned -> %q", got)
	}

	// CLAIM re-attaches; join state accumulated while orphaned is intact,
	// so the pending <a> still joins with a new <b> and the MATCH goes to
	// the claiming connection.
	b.sendLine(t, "CLAIM "+qid)
	if got := b.readLine(t); got != "OK "+qid {
		t.Fatalf("CLAIM -> %q", got)
	}
	b.sendLine(t, "PUB S 2 <b>k</b>")
	got1, got2 := b.readLine(t), b.readLine(t)
	if !strings.Contains(got1+"\n"+got2, "MATCH "+qid+" left=1@1 right=2@2") {
		t.Fatalf("no MATCH after CLAIM: %q %q", got1, got2)
	}

	// After claiming, the new owner may unsubscribe.
	b.sendLine(t, "UNSUB "+qid)
	if got := b.readLine(t); got != "OK "+qid {
		t.Fatalf("UNSUB after CLAIM -> %q", got)
	}
}

// TestServerDurableRestart is the restart-survival requirement: a snapshot
// taken on one server instance restores on the next — every subscription
// survives with its id, document ids resume above the snapshot's, and join
// state spanning the restart still produces its matches.
func TestServerDurableRestart(t *testing.T) {
	store := &mmqjp.MemStore{}
	addr1, s1 := startDurableServer(t, store)

	c := dialTest(t, addr1)
	c.sendLine(t, "SUB S//a->x FOLLOWED BY{x=y, 1000} S//b->y")
	resp := c.readLine(t)
	if !strings.HasPrefix(resp, "OK ") {
		t.Fatalf("SUB -> %q", resp)
	}
	qid := strings.TrimPrefix(resp, "OK ")
	c.sendLine(t, "PUB S 1 <a>k</a>")
	if got := c.readLine(t); got != "OK 0" {
		t.Fatalf("PUB -> %q", got)
	}
	if err := s1.saveSnapshot(); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh server restores from the same store.
	addr2, _ := startDurableServer(t, store)
	c2 := dialTest(t, addr2)
	// The restored subscription is orphaned until claimed.
	c2.sendLine(t, "UNSUB "+qid)
	if got := c2.readLine(t); !strings.HasPrefix(got, "ERR EQUERY") {
		t.Fatalf("restored query not orphaned: UNSUB -> %q", got)
	}
	c2.sendLine(t, "CLAIM "+qid)
	if got := c2.readLine(t); got != "OK "+qid {
		t.Fatalf("CLAIM restored query -> %q", got)
	}
	// The pre-restart <a> joins a post-restart <b>: windowed state crossed
	// the restart, and the new document's id resumed above the snapshot's
	// (left=1, right=2 — not a reused id 1).
	c2.sendLine(t, "PUB S 2 <b>k</b>")
	got1, got2 := c2.readLine(t), c2.readLine(t)
	if !strings.Contains(got1+"\n"+got2, "MATCH "+qid+" left=1@1 right=2@2") {
		t.Fatalf("join state lost across restart: %q %q", got1, got2)
	}
}

// TestServerDurableSparseRestore: a durable server that restores a snapshot
// naming a large query id keeps a page of owner rows and the directories
// above it, not a row or a pointer for every id below it: the live heap
// (mmqjp_heap_live_bytes) reads under 2 MB more right after start than
// before it (48.3 MB more for id 3 000 000 with rows dense by id, and 34 GB
// of directory for id 1<<40 with one flat directory of pages), and the
// restored query is claimed and served under its id.
func TestServerDurableSparseRestore(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes are not fixed under the race detector")
	}
	for _, id := range []string{"3000000", "1099511627776"} {
		t.Run(id, func(t *testing.T) {
			snap := `{"format":"mmqjp-snapshot","version":1,"queries":[{"id":` + id + `,"source":"S//a->x FOLLOWED BY{x=y, 100} S//b->y"}],"state":{"next_seq":0,"max_doc":0}}`
			store := &mmqjp.MemStore{}
			if err := store.Save(func(w io.Writer) error {
				_, err := io.WriteString(w, snap)
				return err
			}); err != nil {
				t.Fatal(err)
			}
			runtime.GC()
			before, _ := collectorGauges()
			addr, s := startDurableServer(t, store)
			runtime.GC()
			after, _ := collectorGauges()
			t.Logf("live heap %.2f MB before start, %.2f MB after", before/1e6, after/1e6)
			if after-before > 2<<20 {
				t.Errorf("restoring query id %s added %.0f bytes of live heap, want <= %d", id, after-before, 2<<20)
			}
			runtime.KeepAlive(s)

			c := dialTest(t, addr)
			c.sendLine(t, "CLAIM "+id)
			if got := c.readLine(t); got != "OK "+id {
				t.Fatalf("CLAIM %s -> %q", id, got)
			}
			c.sendLine(t, "PUB S 1 <a>k</a>")
			if got := c.readLine(t); got != "OK 0" {
				t.Fatalf("PUB -> %q", got)
			}
			c.sendLine(t, "PUB S 2 <b>k</b>")
			if got := c.readLine(t); got != "MATCH "+id+" left=1@1 right=2@2" {
				t.Fatalf("PUB -> %q, want the restored query's match", got)
			}
			if got := c.readLine(t); got != "OK 1" {
				t.Fatalf("PUB -> %q", got)
			}
		})
	}
}

// TestOwnerTableSparse sets, reads and removes ids spread over the whole id
// range, in both orders: every id reads back with its owner while set, its
// neighbours read unknown, and once the last id is removed the table holds
// no page or directory.
func TestOwnerTableSparse(t *testing.T) {
	ids := []mmqjp.QueryID{1, 255, 256, 65535, 65536, 3000000, 1 << 40, math.MaxInt64 - 1}
	for _, reverse := range []bool{false, true} {
		var tab ownerTable
		owners := make([]client, len(ids))
		for i, id := range ids {
			tab.set(id, &owners[i])
		}
		for i, id := range ids {
			if o, ok := tab.get(id); !ok || o.c != &owners[i] || string(o.prefix(tab.prefixes)) != fmt.Sprintf("MATCH %d left=", id) {
				t.Fatalf("get(%d) = %+v, %v", id, o, ok)
			}
			for _, n := range []mmqjp.QueryID{id - 1, id + 1, -id} {
				if _, ok := tab.get(n); ok && !slices.Contains(ids, n) {
					t.Fatalf("get(%d) is known", n)
				}
			}
		}
		order := slices.Clone(ids)
		if reverse {
			slices.Reverse(order)
		}
		for i, id := range order {
			tab.remove(id)
			if _, ok := tab.get(id); ok {
				t.Fatalf("get(%d) is known after remove", id)
			}
			for _, rest := range order[i+1:] {
				if _, ok := tab.get(rest); !ok {
					t.Fatalf("remove(%d) lost %d", id, rest)
				}
			}
		}
		if tab.root != nil || tab.shift != 0 {
			t.Fatalf("empty table keeps a tree over %d bits", tab.shift)
		}
	}
}
