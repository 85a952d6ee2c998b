// Command mmqjp-server is a minimal XML publish/subscribe broker built on
// the MMQJP engine: clients subscribe with XSCL queries and publish XML
// documents over a line-oriented TCP protocol; matches are pushed to the
// connection that registered the query.
//
// Protocol (one request per line):
//
//	SUB <xscl-query>             -> OK <qid> | ERR <code> <message>
//	UNSUB <qid>                  -> OK <qid> | ERR <code> <message>
//	CLAIM <qid>                  -> OK <qid> | ERR <code> <message>
//	PUB <stream> <ts> <xml>      -> OK <matches> | ERR <code> <message>
//	PUBB <stream> <n>            -> OK <total matches> | ERR <code> <message>
//	STATS                        -> OK <engine stats>
//	QUIT                         -> closes the connection
//
// Error replies carry a stable machine-readable code as their first token
// (the human-readable message may change between releases):
//
//	EPROTO  malformed request (usage, unknown verb, bad field)
//	EPARSE  query or document text did not parse
//	EQUERY  unknown query id, or an ownership/claim violation
//	ELIMIT  a size limit was exceeded (line length, batch count)
//
// A request line may be at most 1 MB; an over-long line is consumed whole,
// answered with an ERR, and the connection stays usable (it is not silently
// dropped).
//
// PUBB publishes a batch: the header line is followed by exactly <n> lines
// (n ≤ 65536), each `<ts> <xml>`, published in order under one hold of the
// engine's lock (one Engine.PublishDoc call), so no other connection's
// document lands between two of the batch's. A malformed document line rejects the
// whole batch after the announced lines are consumed; no document of a
// rejected batch is published.
//
// UNSUB removes a subscription; only the connection that registered (or
// claimed) a query may unsubscribe it. The engine reclaims everything the
// query no longer shares with surviving subscriptions (refcounted canonical
// templates, query relations, indexes). Without -snapshot-path a
// subscription lives at most as long as its connection: disconnecting
// unsubscribes all of the connection's queries.
//
// With -snapshot-path the server is durable: subscriptions survive both
// client disconnects and server restarts. A disconnect orphans the client's
// queries (they keep accumulating join state; their matches are simply not
// delivered) and a reconnecting client re-attaches with CLAIM <qid>, which
// also reclaims queries restored from a snapshot. The engine — every
// subscription plus the windowed join state — is snapshotted to the given
// file atomically (write-temp + rename) every -snapshot-every interval and
// on SIGINT/SIGTERM; on startup an existing snapshot is restored and
// publishing resumes exactly where the stream left off, with document ids
// continuing above the highest admitted id.
//
// -snapshot-gzip compresses saved snapshots; restores sniff the on-disk
// format, so the flag can be added (or dropped) across restarts without
// losing the existing snapshot. -snapshot-every or -snapshot-gzip without
// -snapshot-path is a usage error, not a server without durability.
//
// -debug-addr starts an HTTP observability sidecar with /metrics
// (Prometheus text), /healthz (a round trip through the engine's Stage-2
// lock under a deadline, Engine.Ping) and /debug/pprof; see debug.go for the
// metric set.
//
// Matches are pushed to the connection that owns the matched query as
//
//	MATCH <qid> left=<docid>@<ts> right=<docid>@<ts>
//
// Replies on a connection keep the order of its requests, and a publisher's
// own MATCH lines come before the OK <n> that counts them, in the same
// write: each connection has one outbound buffer, replies are appended to it
// as text and it is written once per reply group (conn.go; DESIGN.md "The
// wire reply path"). MATCH lines for another connection's queries are queued
// on that connection and written by it, so a publish never waits on somebody
// else's socket. A client that stops reading only holds up its own requests —
// until more than 4 MB of matches produced by other connections wait for it
// and its socket has taken nothing for a second: then it is dropped exactly
// like a disconnect, with `ERR ELIMIT slow reader` as its last line if the
// socket still takes one.
//
// Connections are served concurrently against one shared engine: each
// connection's handler runs its PUB's Stage 1 (NFA match, witness
// construction) on its own goroutine, so publishers on different
// connections overlap it, and documents enter the join state one at a time.
// Document ids are assigned by arrival order. Example session:
//
//	$ mmqjp-server -addr :7878 &
//	$ printf 'SUB S//a->x JOIN{x=y, 100} S//b->y\nPUB S 1 <a>v</a>\nPUB S 2 <b>v</b>\n' | nc localhost 7878
package main

import (
	"bufio"
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"os/signal"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	mmqjp "repro"
)

// maxLineBytes bounds a single protocol line. Longer lines are consumed to
// their end and rejected with an ERR reply, keeping the connection
// line-synchronized instead of silently dropping it.
const maxLineBytes = 1 << 20

// server fans concurrent client connections into a shared Engine. The
// engine itself is safe for concurrent subscribes and publishes, so the
// server's own mutex only guards the query-ownership table. Lock order: s.mu,
// then the engine's registration lock, then its Stage-2 lock.
type server struct {
	eng     *mmqjp.Engine
	durable bool // -snapshot-path set: disconnects orphan instead of unsubscribing
	store   mmqjp.Store
	m       *serverMetrics // nil without -debug-addr: all methods no-op
	nextDoc atomic.Int64

	// mu guards owners: written by SUB/UNSUB/CLAIM and disconnects, read
	// once per document by every publish that has matches to route.
	mu     sync.RWMutex
	owners ownerTable
}

// ownerTable maps a query to the connection that subscribed (or claimed) it,
// beside the query's rendered `MATCH <qid> left=`, the first piece of each of
// its MATCH lines. Unlike the engine's maps of live queries it is indexed by
// QueryID, because every match reads it: on a 2-core Xeon, 180 lookups (an
// rss_window document's matches) over 10 000 owners take 0.2–0.3 µs from a
// slice and ≈ 3 µs from a Go map, against ≈ 33 µs of CPU per document. The
// index is a radix tree, so the table costs what its live ids reach, not
// their highest: rows lie in pages of 256 ids under directories of 256
// children, each allocated by the first set below it and released with the
// last row below it, and the tree is as tall as the highest id needs. Ids
// below 65 536 are two indexes from the root, as with one directory; a
// restored snapshot naming id 3 000 000 costs a page and two directories,
// and one naming id 1<<40 a page and five (24 KB), not a row or a pointer
// per lower id. The prefixes add ≈ 20 bytes per lifetime SUB. An id the
// table does not know — unsubscribed, or before a restore — is a zero row.
// In durable mode a known row with a nil owner marks an orphaned
// subscription: alive in the engine, matches undelivered until a CLAIM.
type ownerTable struct {
	// root is the tree's top directory, nil while no id is known; shift is
	// the bits of an id below the root's index, ownerBits times the tree's
	// height (0 while root is nil), so the tree covers the ids below
	// ownerFan<<shift.
	root  *ownerDir
	shift uint
	// prefixes holds every row's prefix, appended when the table first
	// learns the query and never rewritten, so bytes read through a copy of
	// the slice taken under the read lock stay valid after its release. The
	// rows' uint32 offsets address 4 GiB, some 200 million lifetime SUBs.
	prefixes []byte
}

// ownerBits is the bits of an id that each level of ownerTable resolves: a
// page holds 256 16-byte rows, one 4 KB memory page, and a directory 256
// children.
const ownerBits = 8

const ownerFan = 1 << ownerBits

// ownerPage is one page of ownerTable's rows.
type ownerPage [ownerFan]owner

// ownerDir is one directory of ownerTable: at the bottom (its index at bit
// ownerBits) it holds pages, above that directories.
type ownerDir struct {
	dirs  [ownerFan]*ownerDir
	pages [ownerFan]*ownerPage
}

// owner is one row of ownerTable: the owning connection and where the
// query's prefix lies in ownerTable.prefixes (n = 0: unknown query). A row
// the table does not know is all zero.
type owner struct {
	c   *client
	off uint32
	n   uint8
}

func (o *owner) prefix(prefixes []byte) []byte { return prefixes[o.off : o.off+uint32(o.n)] }

// get returns qid's row and whether the table knows qid. It is small enough
// to inline, which every match's lookup takes.
func (t *ownerTable) get(qid mmqjp.QueryID) (o owner, ok bool) {
	u, d := uint64(qid), t.root
	if u>>t.shift >= ownerFan {
		return
	}
	for sh := t.shift; sh > ownerBits && d != nil; sh -= ownerBits {
		d = d.dirs[u>>sh%ownerFan]
	}
	if d != nil {
		if p := d.pages[u>>ownerBits%ownerFan]; p != nil {
			o = p[u%ownerFan]
		}
	}
	return o, o.n > 0
}

// set makes c the owner of qid (nil: orphaned), rendering qid's prefix when
// the table first learns it: at SUB, or at restore for a query a CLAIM will
// adopt.
func (t *ownerTable) set(qid mmqjp.QueryID, c *client) {
	u := uint64(qid)
	for t.shift == 0 || u>>t.shift >= ownerFan {
		if t.root != nil {
			up := new(ownerDir)
			up.dirs[0], t.root = t.root, up
		}
		t.shift += ownerBits
	}
	if t.root == nil {
		t.root = new(ownerDir)
	}
	d := t.root
	for sh := t.shift; sh > ownerBits; sh -= ownerBits {
		next := &d.dirs[u>>sh%ownerFan]
		if *next == nil {
			*next = new(ownerDir)
		}
		d = *next
	}
	p := &d.pages[u>>ownerBits%ownerFan]
	if *p == nil {
		*p = new(ownerPage)
	}
	o := &(*p)[u%ownerFan]
	if o.n == 0 {
		off := len(t.prefixes)
		t.prefixes = append(t.prefixes, "MATCH "...)
		t.prefixes = strconv.AppendInt(t.prefixes, int64(qid), 10)
		t.prefixes = append(t.prefixes, " left="...)
		o.off, o.n = uint32(off), uint8(len(t.prefixes)-off)
	}
	o.c = c
}

// remove forgets qid, which the table knows, releasing its page with the
// page's last row and each directory above it with its last child.
func (t *ownerTable) remove(qid mmqjp.QueryID) {
	if release(t.root, t.shift, uint64(qid)) {
		t.root, t.shift = nil, 0
	}
}

// release clears row u below directory d, whose index is at bit sh, and
// reports whether d is left empty.
func release(d *ownerDir, sh uint, u uint64) bool {
	i := u >> sh % ownerFan
	if sh > ownerBits {
		if !release(d.dirs[i], sh-ownerBits, u) {
			return false
		}
		d.dirs[i] = nil
	} else {
		p := d.pages[i]
		if p[u%ownerFan] = (owner{}); *p != (ownerPage{}) {
			return false
		}
		d.pages[i] = nil
	}
	return *d == (ownerDir{})
}

// Stable error codes, the first token of every ERR reply.
const (
	errProto = "EPROTO" // malformed request
	errParse = "EPARSE" // query/document text did not parse
	errQuery = "EQUERY" // unknown id or ownership violation
	errLimit = "ELIMIT" // size limit exceeded
)

// config is the server's command line.
type config struct {
	addr, debugAddr, snapPath *string
	snapGzip                  *bool
	snapEvery                 *time.Duration
}

// parseFlags defines the server's flags on flag.CommandLine and parses args.
// A snapshot option without -snapshot-path is a usage error: only durable
// mode reads it, so a forgotten path would leave the server without
// durability and without a word.
func parseFlags(args []string) (*config, error) {
	c := &config{
		addr:      flag.String("addr", ":7878", "listen address"),
		debugAddr: flag.String("debug-addr", "", "HTTP observability listener (/metrics, /healthz, /debug/pprof); empty disables"),
		snapPath:  flag.String("snapshot-path", "", "durable mode: snapshot file to restore on start and save on shutdown; empty disables"),
		snapEvery: flag.Duration("snapshot-every", 0, "with -snapshot-path, also snapshot at this interval (0 = only on shutdown)"),
		snapGzip:  flag.Bool("snapshot-gzip", false, "with -snapshot-path, gzip-compress saved snapshots (restores sniff the format, so existing uncompressed snapshots still open)"),
	}
	if err := flag.CommandLine.Parse(args); err != nil {
		return nil, err
	}
	var err error
	flag.Visit(func(f *flag.Flag) {
		if err == nil && *c.snapPath == "" && f.Name != "snapshot-path" && strings.HasPrefix(f.Name, "snapshot-") {
			err = fmt.Errorf("-%s needs -snapshot-path", f.Name)
		}
	})
	if err != nil {
		fmt.Fprintf(flag.CommandLine.Output(), "mmqjp-server: %v\n", err)
		flag.Usage()
	}
	return c, err
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		os.Exit(2)
	}
	s := &server{durable: *cfg.snapPath != ""}
	if *cfg.debugAddr != "" {
		s.m = newServerMetrics(func() *mmqjp.Engine { return s.eng })
	}
	if s.durable {
		var storeOpts []mmqjp.StoreOption
		if *cfg.snapGzip {
			storeOpts = append(storeOpts, mmqjp.WithGzip())
		}
		s.store = mmqjp.NewFileStore(*cfg.snapPath, storeOpts...)
	}
	restored, err := s.initEngine(s.engineOptions())
	if err != nil {
		log.Fatalf("mmqjp-server: restore %s: %v", *cfg.snapPath, err)
	}
	if restored > 0 {
		log.Printf("mmqjp-server: restored %d subscriptions from %s", restored, *cfg.snapPath)
	}
	if *cfg.debugAddr != "" {
		dbg, err := s.startDebugServer(*cfg.debugAddr)
		if err != nil {
			log.Fatalf("mmqjp-server: debug listener: %v", err)
		}
		log.Printf("mmqjp-server debug endpoints on http://%s", dbg)
	}
	if s.durable {
		if *cfg.snapEvery > 0 {
			go func() {
				for range time.Tick(*cfg.snapEvery) {
					s.saveSnapshot()
				}
			}()
		}
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		go func() {
			<-sig
			if err := s.saveSnapshot(); err != nil {
				os.Exit(1)
			}
			os.Exit(0)
		}()
	}
	ln, err := net.Listen("tcp", *cfg.addr)
	if err != nil {
		log.Fatalf("mmqjp-server: %v", err)
	}
	log.Printf("mmqjp-server listening on %s", ln.Addr())
	for {
		conn, err := ln.Accept()
		if err != nil {
			log.Printf("accept: %v", err)
			continue
		}
		go s.serve(s.newClient(conn))
	}
}

// engineOptions is what the server builds its engine from: the library's
// zero Options, plus the per-document metrics hook under -debug-addr. A
// library caller with New(Options{}) runs the evaluator the server runs.
func (s *server) engineOptions() mmqjp.Options {
	var opts mmqjp.Options
	if s.m != nil {
		opts.OnDocument = s.m.onDocument
	}
	return opts
}

// initEngine creates the server's engine: in durable mode an existing
// snapshot in s.store is restored — its subscriptions start orphaned (nil
// owner) until a CLAIM re-attaches them, and document ids resume above
// everything the snapshot had admitted — while a missing snapshot
// (ErrNoSnapshot) falls back to a fresh engine. Returns how many
// subscriptions were restored.
func (s *server) initEngine(opts mmqjp.Options) (restored int, err error) {
	if s.durable {
		eng, err := mmqjp.OpenEngineFrom(s.store, opts)
		switch {
		case err == nil:
			s.eng = eng
			for _, qid := range eng.Subscriptions() {
				s.owners.set(qid, nil)
			}
			s.nextDoc.Store(eng.MaxDocID())
			return eng.NumQueries(), nil
		case !errors.Is(err, mmqjp.ErrNoSnapshot):
			return 0, err
		}
	}
	s.eng = mmqjp.New(opts)
	return 0, nil
}

// saveSnapshot writes the engine snapshot into the durable store. The
// snapshot is a consistent prefix of the serial document order and replaces
// the previous file atomically, so a crash at any point leaves a restartable
// snapshot behind.
func (s *server) saveSnapshot() error {
	start := time.Now()
	err := s.eng.SnapshotTo(s.store)
	s.m.snapshotSaved(time.Since(start), err)
	if err != nil {
		log.Printf("mmqjp-server: snapshot: %v", err)
	}
	return err
}

// readLine reads one newline-terminated line from r, retaining at most max
// bytes, and returns it without its line end. The line is a view of r's
// buffer, valid until the next read of r; one longer than the buffer is
// assembled in c's line buffer, valid until the next readLine, which
// releases that buffer once it has grown past 2×flushBytes, as an outbound
// buffer is. An over-long line is consumed to its newline and reported via
// tooLong, so the caller can reject it and keep the connection
// line-synchronized. A final unterminated line is returned before the
// subsequent error.
func (c *client) readLine(r *bufio.Reader, max int) (line []byte, tooLong bool, err error) {
	if cap(c.line) > 2*flushBytes {
		c.line = nil
	}
	long := c.line[:0]
	for {
		frag, err := r.ReadSlice('\n')
		if !tooLong && len(long)+len(frag) > max {
			tooLong = true
		}
		if err == nil && len(long) == 0 && !tooLong {
			return bytes.TrimRight(frag, "\r\n"), false, nil
		}
		if !tooLong {
			long = append(long, frag...)
			c.line = long
		}
		switch err {
		case nil:
			return bytes.TrimRight(long, "\r\n"), tooLong, nil
		case bufio.ErrBufferFull:
			continue
		default:
			if err == io.EOF && (len(long) > 0 || tooLong) {
				return long, tooLong, nil
			}
			return nil, tooLong, err
		}
	}
}

func (s *server) serve(c *client) {
	defer c.conn.Close()
	// A subscription lives as long as the connection that registered it:
	// on disconnect the client's queries are unsubscribed, so a dropped
	// connection cannot leak un-removable queries into the engine (UNSUB
	// rejects every other connection by the ownership rule).
	defer s.dropClient(c)
	// A QUIT may leave coalesced replies queued. Defers run LIFO: the flush
	// completes before dropClient and the connection close above.
	defer c.flush()
	rd := bufio.NewReaderSize(flushReader{c}, 64<<10)
	for !c.isDead() {
		line, tooLong, err := c.readLine(rd, maxLineBytes)
		if err != nil {
			return
		}
		if tooLong {
			s.replyErr(c, errLimit, fmt.Sprintf("line exceeds %d bytes", maxLineBytes))
			continue
		}
		// A PUB is handed to the engine where it lies; every other request
		// copies what it keeps out of the read buffer before the next read.
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		verb, rest := line, []byte(nil)
		if i := bytes.IndexByte(line, ' '); i >= 0 {
			verb, rest = line[:i], line[i+1:]
		}
		switch {
		case verbIs(verb, "PUB"):
			s.handlePub(c, rest)
		case verbIs(verb, "SUB"):
			s.handleSub(c, string(rest))
		case verbIs(verb, "UNSUB"):
			s.handleUnsub(c, string(rest))
		case verbIs(verb, "CLAIM"):
			s.handleClaim(c, string(rest))
		case verbIs(verb, "PUBB"):
			s.handlePubBatch(c, rd, rest)
		case verbIs(verb, "STATS"):
			c.enqueue(reply{text: statsLine(s.eng.Stats())})
		case verbIs(verb, "QUIT"):
			return
		default:
			s.replyErr(c, errProto, "unknown verb "+string(verb))
		}
	}
}

// verbIs reports whether verb spells name, which is upper case, in any
// ASCII case.
func verbIs(verb []byte, name string) bool {
	if len(verb) != len(name) {
		return false
	}
	for i := 0; i < len(name); i++ {
		ch := verb[i]
		if 'a' <= ch && ch <= 'z' {
			ch -= 'a' - 'A'
		}
		if ch != name[i] {
			return false
		}
	}
	return true
}

func (s *server) handleSub(c *client, src string) {
	// s.mu is held across Subscribe and the owners insert so a concurrent
	// PUB can never observe the query registered but unowned (its matches
	// would be dropped): handlePub reads owners only after its publish
	// returns, and by then either the query wasn't registered yet or the
	// owner is in the table. Publishes themselves never run under s.mu.
	s.mu.Lock()
	id, err := s.eng.Subscribe(src)
	if err == nil {
		s.owners.set(id, c)
		c.owned = append(c.owned, id)
	}
	s.mu.Unlock()
	if err != nil {
		s.replyErr(c, errParse, err.Error())
		return
	}
	c.enqueue(okReply(int64(id)))
}

// handleClaim re-attaches the requesting connection to an orphaned durable
// subscription — one restored from a snapshot, or left behind by its
// owner's disconnect. Claiming a query you already own is an idempotent OK;
// claiming another live connection's query is refused.
func (s *server) handleClaim(c *client, rest string) {
	id, err := strconv.ParseInt(strings.TrimSpace(rest), 10, 64)
	if err != nil {
		s.replyErr(c, errProto, "usage: CLAIM <qid>")
		return
	}
	qid := mmqjp.QueryID(id)
	s.mu.Lock()
	o, ok := s.owners.get(qid)
	switch {
	case !ok || s.eng.Query(qid) == "": // the latter: unsubscribed, its entry not yet at its slot
		err = fmt.Errorf("unknown query %d", qid)
	case o.c != nil && o.c != c:
		err = fmt.Errorf("query %d belongs to another connection", qid)
	default:
		if o.c != c {
			c.owned = append(c.owned, qid)
		}
		s.owners.set(qid, c)
	}
	s.mu.Unlock()
	if err != nil {
		s.replyErr(c, errQuery, err.Error())
		return
	}
	c.enqueue(okReply(int64(qid)))
}

// handleUnsub removes a subscription owned by the requesting connection.
// s.mu is held across the ownership check and the engine call, mirroring
// handleSub: a concurrent PUB either publishes before the query is removed
// (and may deliver its final matches) or after (and cannot).
func (s *server) handleUnsub(c *client, rest string) {
	id, err := strconv.ParseInt(strings.TrimSpace(rest), 10, 64)
	if err != nil {
		s.replyErr(c, errProto, "usage: UNSUB <qid>")
		return
	}
	qid := mmqjp.QueryID(id)
	s.mu.Lock()
	o, ok := s.owners.get(qid)
	switch {
	case !ok:
		err = fmt.Errorf("unknown query %d", qid)
	case o.c == nil:
		err = fmt.Errorf("query %d is unclaimed; CLAIM it first", qid)
	case o.c != c:
		err = fmt.Errorf("query %d belongs to another connection", qid)
	default:
		err = s.eng.Unsubscribe(qid)
		if err == nil {
			s.owners.remove(qid)
			if c.stale++; 4*c.stale > len(c.owned) {
				s.compactOwned(c)
			}
		}
	}
	s.mu.Unlock()
	if err != nil {
		s.replyErr(c, errQuery, err.Error())
		return
	}
	c.enqueue(okReply(int64(qid)))
}

// dropClient releases every query owned by a disconnecting client, in id
// order, visiting only those (client.owned): in durable mode the queries
// are orphaned (kept alive in the engine, matches undelivered until a CLAIM
// re-attaches them); otherwise they are unsubscribed. Lock order matches
// handleSub/handleUnsub: s.mu is taken first, the engine lock inside it.
func (s *server) dropClient(c *client) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.compactOwned(c)
	ids := c.owned
	slices.Sort(ids) // a CLAIM appends out of order
	c.owned = nil
	for _, qid := range ids {
		if s.durable {
			s.owners.set(qid, nil)
			continue
		}
		if err := s.eng.Unsubscribe(qid); err != nil {
			log.Printf("drop client: unsubscribe %d: %v", qid, err)
		}
		s.owners.remove(qid)
	}
}

// compactOwned drops from c's list the ids it no longer owns: those it
// unsubscribed.
//
//mmqjp:guardedby s.mu
func (s *server) compactOwned(c *client) {
	kept := c.owned[:0]
	for _, qid := range c.owned {
		if o, ok := s.owners.get(qid); ok && o.c == c {
			kept = append(kept, qid)
		}
	}
	c.owned, c.stale = kept, 0
}

// handlePub publishes `<stream> <ts> <xml>`, rest, where the read left it:
// the engine keeps nothing of the XML (Engine.AppendPublishXML).
func (s *server) handlePub(c *client, rest []byte) {
	streamText, rest, ok1 := cut(rest)
	tsText, xmlText, ok2 := cut(rest)
	if !ok1 || !ok2 {
		s.replyErr(c, errProto, "usage: PUB <stream> <ts> <xml>")
		return
	}
	ts, err := strconv.ParseInt(string(tsText), 10, 64)
	if err != nil {
		s.replyErr(c, errProto, "bad timestamp: "+err.Error())
		return
	}
	// Timestamps drive window admission and eviction order; a negative one
	// would sort before every document already in the window. ParseInt
	// happily accepts "-5", so reject it explicitly.
	if ts < 0 {
		s.replyErr(c, errProto, "bad timestamp: must be non-negative, got "+string(tsText))
		return
	}
	stream := string(streamText)
	docID := s.nextDoc.Add(1)
	c.res.Reset()
	if c.res, err = s.eng.AppendPublishXML(c.res, stream, xmlText, docID, ts); err != nil {
		s.replyErr(c, errParse, err.Error())
		return
	}
	s.deliver(c, &c.res)
	s.ackPublish(c, stream, 1, c.res.Len())
}

// maxBatchDocs bounds the document count a PUBB header may announce, so a
// hostile or mistyped count cannot drive a huge allocation. An oversized
// count is rejected before any document line is read (the client must
// resynchronize, exactly as after a malformed header).
const maxBatchDocs = 65536

// batchHeader parses `<stream> <n>`, the rest of a PUBB header line. When ok
// is false no document line is consumed and bad is the reply.
func batchHeader(rest []byte) (stream string, n int, bad reply, ok bool) {
	streamText, nText, ok := cut(rest)
	if !ok || len(nText) == 0 {
		return "", 0, errReply(errProto, "usage: PUBB <stream> <n>, then n lines of <ts> <xml>"), false
	}
	n, err := strconv.Atoi(string(nText))
	if err != nil || n < 0 {
		return "", 0, errReply(errProto, "bad batch count "+string(nText)), false
	}
	if n > maxBatchDocs {
		return "", 0, errReply(errLimit, fmt.Sprintf("batch count %d exceeds %d", n, maxBatchDocs)), false
	}
	return string(streamText), n, reply{}, true
}

// handlePubBatch reads the <n> document lines announced by a PUBB header
// and publishes them as one batch.
func (s *server) handlePubBatch(c *client, rd *bufio.Reader, rest []byte) {
	stream, n, bad, ok := batchHeader(rest)
	if !ok {
		c.enqueue(bad)
		return
	}
	docs := make([]mmqjp.PublishOption, 0, n)
	badLine, badCode := "", ""
	for i := 0; i < n; i++ {
		// Consume every announced line even after an error, so the
		// connection stays line-synchronized.
		line, tooLong, err := c.readLine(rd, maxLineBytes)
		if err != nil {
			s.replyErr(c, errProto, "truncated batch")
			return
		}
		if tooLong {
			if badLine == "" {
				badLine = fmt.Sprintf("batch document %d exceeds %d bytes", i+1, maxLineBytes)
				badCode = errLimit
			}
			continue
		}
		tsText, xmlText, ok := cut(line)
		ts, perr := strconv.ParseInt(string(tsText), 10, 64)
		if !ok || len(xmlText) == 0 || perr != nil || ts < 0 {
			// ts < 0: same rejection as handlePub — ParseInt accepts a
			// leading minus, but negative timestamps would invert window
			// eviction order.
			if badLine == "" {
				badLine = fmt.Sprintf("bad batch document %d: want <ts> <xml> with non-negative ts", i+1)
				badCode = errProto
			}
			continue
		}
		docs = append(docs, mmqjp.WithXML(string(xmlText), s.nextDoc.Add(1), ts))
	}
	if badLine != "" {
		s.replyErr(c, badCode, badLine)
		return
	}
	res, err := s.eng.PublishDoc(stream, nil, docs...)
	if err != nil {
		s.replyErr(c, errParse, err.Error())
		return
	}
	// Document by document, so the flush rule sees each one's lines.
	total := 0
	for _, ms := range res.Batches {
		c.res.Reset()
		for _, m := range ms {
			c.res.Append(m)
		}
		s.deliver(c, &c.res)
		total += len(ms)
	}
	s.ackPublish(c, stream, len(docs), total)
}

// cut splits s, trimmed, at its first space into a first field and the
// trimmed rest; ok is false for a blank s.
func cut(s []byte) (first, rest []byte, ok bool) {
	s = bytes.TrimSpace(s)
	i := bytes.IndexByte(s, ' ')
	if i < 0 {
		return s, nil, len(s) > 0
	}
	return s[:i], bytes.TrimSpace(s[i+1:]), true
}
