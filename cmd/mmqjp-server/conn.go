package main

import (
	"log"
	"net"
	"strconv"
	"sync"
	"time"

	mmqjp "repro"
)

// The wire reply path: every byte the server sends leaves through one
// outbound buffer per connection, append-encoded and written a reply group
// at a time. DESIGN.md "The wire reply path" has the ownership and flush
// rules; the constants below are the whole policy, and none is a flag.
const (
	// flushBytes is how much a connection queues for itself before it
	// writes without waiting for the reply group to end (a PUBB batch can
	// produce megabytes of MATCH lines; the handler then blocks on its own
	// socket, which is the back-pressure its client asked for). Buffers
	// that grew past twice this are released after the write.
	flushBytes = 64 << 10
	// maxOutboundBytes bounds what publishes on other connections may
	// queue on a connection whose client is not reading: with more than
	// this waiting and a socket still busy with a write it was handed
	// slowReaderGrace ago, the connection is dropped like a disconnect. A
	// publisher never waits on somebody else's socket.
	maxOutboundBytes = 4 << 20
	// slowReaderGrace is how long a socket may sit on one write, with more
	// than maxOutboundBytes waiting behind it, before its client counts as
	// not reading (a burst bigger than the bound, queued faster than any
	// socket drains, is not a slow reader); and how long a dropped
	// connection then gets to take that write and the final ERR ELIMIT line.
	slowReaderGrace = time.Second
	// maxKeptMatches is how large a result buffer a connection keeps
	// between PUBs (client.matches).
	maxKeptMatches = 4096
	// docCacheSize is how many documents' rendered `<doc>@<ts>` a
	// publishing connection keeps (docCache), direct-mapped by id. A
	// document's matches pair it with documents of its join window, and ids
	// are issued consecutively, so with a window of up to this many
	// documents each is rendered once while it is in the window. 1 024
	// slots are 72 KB per connection that has published.
	docCacheSize = 1024
)

// reply is one non-MATCH reply line: OK <n>, OK <text> or ERR <code> <text>.
type reply struct {
	code string // ERR code; empty for OK
	text string // ERR message, or the OK payload when set
	n    int64  // the OK payload otherwise
}

func okReply(n int64) reply           { return reply{n: n} }
func errReply(code, msg string) reply { return reply{code: code, text: msg} }

func (r reply) appendTo(b []byte) []byte {
	if r.code != "" {
		b = append(b, "ERR "...)
		b = append(b, r.code...)
		b = append(b, ' ')
		return appendLine(b, r.text)
	}
	b = append(b, "OK "...)
	if r.text != "" {
		return appendLine(b, r.text)
	}
	b = strconv.AppendInt(b, r.n, 10)
	return append(b, '\n')
}

// appendLine appends text and the line terminator. Error messages quote
// client input and parser output; a line break inside one would
// desynchronise every client that reads replies by line.
func appendLine(b []byte, text string) []byte {
	for i := 0; i < len(text); i++ {
		ch := text[i]
		if ch == '\n' || ch == '\r' {
			ch = ' '
		}
		b = append(b, ch)
	}
	return append(b, '\n')
}

// docCache holds rendered document references, the pieces MATCH lines are
// copied from: a line is its query's prefix (ownerTable), the left
// document's piece and the right document's, with no number formatted on a
// hit. A slot is keyed by document id and verified by id and timestamp; a
// miss renders the slot in place, so any pattern of misses — two documents
// of one line on one slot included — encodes the same bytes, and nothing is
// ever evicted. Only the goroutine that produces its connection's replies
// touches it.
type docCache [docCacheSize]docPiece

// docPiece is one slot: ` right=<doc>@<ts>\n`, the tail of a line whose
// right document is doc; the middle of it, `<doc>@<ts>`, is the left piece.
type docPiece struct {
	doc, ts int64
	n       uint8
	text    [len(rightTag) + 2*20 + len("@\n")]byte
}

const rightTag = " right="

// piece returns the slot of doc, rendering it unless it holds doc already.
func (c *docCache) piece(doc, ts int64) []byte {
	p := &c[uint64(doc)%docCacheSize]
	if p.n == 0 || p.doc != doc || p.ts != ts {
		b := append(p.text[:0], rightTag...)
		b = strconv.AppendInt(b, doc, 10)
		b = append(b, '@')
		b = strconv.AppendInt(b, ts, 10)
		b = append(b, '\n')
		p.doc, p.ts, p.n = doc, ts, uint8(len(b))
	}
	return p.text[:p.n]
}

// appendMatch appends `MATCH <qid> left=<doc>@<ts> right=<doc>@<ts>`, prefix
// being the query's `MATCH <qid> left=`. The left piece is copied out before
// the right one is looked up, which may re-render the same slot.
func (c *docCache) appendMatch(b, prefix []byte, m *mmqjp.Match) []byte {
	b = append(b, prefix...)
	left := c.piece(m.LeftDoc, m.LeftTS)
	b = append(b, left[len(rightTag):len(left)-1]...)
	return append(b, c.piece(m.RightDoc, m.RightTS)...)
}

// client is one connection. Its own replies are produced by exactly one
// goroutine — its handler — which is also the one that writes them; MATCH
// lines for its subscriptions are appended by whichever connection published
// the matching document.
type client struct {
	s    *server
	conn net.Conn

	// mu guards the outbound queue. It is held to append or to swap the
	// buffer out, never across a socket operation, so a publisher on
	// another connection can always append.
	mu sync.Mutex
	//mmqjp:guardedby c.mu
	out []byte // encoded replies not yet handed to the socket
	//mmqjp:guardedby c.mu
	dead bool // write failed or slow-reader drop: further replies are discarded
	//mmqjp:guardedby c.mu
	draining bool // a drain goroutine is writing bytes other connections queued
	//mmqjp:guardedby c.mu
	progress time.Time // when the socket last took on a write, or a publish found the queue empty

	// wmu makes swap-and-write atomic, so bytes reach the socket in the
	// order they were queued whichever goroutine writes them. Only this
	// connection's own goroutines take it.
	wmu   sync.Mutex
	spare []byte // the previous write's buffer, swapped in by the next

	// matchOwners and docs are deliver's scratch and piece cache, used by
	// the goroutine that produces this connection's replies; docs is
	// allocated by the connection's first publish that has matches.
	matchOwners []owner
	docs        *docCache
	// matches is the handler's result buffer: a PUB's matches
	// are written into it (Engine.AppendPublishXML) and encoded into the
	// owners' outbound buffers before the handler reads its next request,
	// so every PUB of the connection uses the same one. One that a burst
	// grew past maxKeptMatches is released after its reply.
	matches []mmqjp.Match
}

// newClient wraps an accepted connection.
func (s *server) newClient(conn net.Conn) *client {
	return &client{s: s, conn: conn}
}

// replyErr answers one request with a coded error.
func (s *server) replyErr(c *client, code, msg string) {
	c.enqueue(errReply(code, msg))
}

// enqueue appends one of c's own replies; only the goroutine that produces
// them calls it.
func (c *client) enqueue(r reply) {
	c.mu.Lock()
	full := false
	if !c.dead {
		n := len(c.out)
		c.out = r.appendTo(c.out)
		c.s.m.replyQueued(len(c.out) - n)
		full = len(c.out) >= flushBytes
	}
	c.mu.Unlock()
	if full {
		c.flush()
	}
}

// flush hands everything queued so far to the socket in one Write. It may
// block for as long as the client does not read, so only c's own goroutines
// call it. The bytes leave the queue gauge and enter the counters when they
// are handed over, so a client that has read a reply finds it counted.
func (c *client) flush() {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.mu.Lock()
	buf := c.out
	if len(buf) == 0 {
		c.mu.Unlock()
		return
	}
	c.out = c.spare
	c.progress = time.Now()
	c.mu.Unlock()
	c.s.m.replyQueued(-len(buf))
	c.s.m.replyWritten(len(buf))
	_, err := c.conn.Write(buf)
	c.spare = nil
	if cap(buf) <= 2*flushBytes {
		c.spare = buf[:0]
	}
	if err != nil {
		c.fail()
	}
}

// fail marks the connection unusable after a write error and closes it,
// which ends the handler's read.
func (c *client) fail() {
	c.mu.Lock()
	c.dead = true
	c.s.m.replyQueued(-len(c.out))
	c.out = nil
	c.mu.Unlock()
	c.conn.Close()
}

func (c *client) isDead() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dead
}

// drain writes out what other connections queued on c. A publisher starts
// it when none is running; it ends when the queue is empty, and closes a
// dropped connection once the farewell line has gone out (or could not).
func (c *client) drain() {
	for {
		c.flush()
		c.mu.Lock()
		if len(c.out) == 0 {
			c.draining = false
			dead := c.dead
			c.mu.Unlock()
			if dead {
				c.conn.Close()
			}
			return
		}
		c.mu.Unlock()
	}
}

// flushReader is the handler's view of its socket: whatever the
// handler has queued is written before it waits for the next request, so it
// never sits in a read while its client waits for a reply.
type flushReader struct{ c *client }

func (r flushReader) Read(p []byte) (int, error) {
	r.c.flush()
	return r.c.conn.Read(p)
}

// ackPublish completes a publish's reply group at c's reply slot: the MATCH
// lines of every batch go to the connections that own the matched queries,
// then c gets OK <total> and its group is written.
func (s *server) ackPublish(c *client, stream string, docs int, batches ...[]mmqjp.Match) {
	total := 0
	for _, matches := range batches {
		total += len(matches)
		s.deliver(c, matches)
	}
	s.m.published(stream, docs, total)
	c.enqueue(okReply(int64(total)))
	c.flush()
}

// deliver appends one document's MATCH lines to the connections owning the
// matched queries: owners and prefixes are resolved under the read lock,
// then each owner's lines are encoded into its buffer, from self's piece
// cache, under one acquisition of its lock. self is the publishing
// connection, whose own lines wait for its OK.
func (s *server) deliver(self *client, matches []mmqjp.Match) {
	if len(matches) == 0 {
		return
	}
	if self.docs == nil {
		self.docs = new(docCache)
	}
	owners := self.matchOwners[:0]
	s.mu.RLock()
	prefixes := s.owners.prefixes
	for i := range matches {
		o, _ := s.owners.get(matches[i].Query)
		owners = append(owners, o)
	}
	s.mu.RUnlock()
	for i := range owners {
		if to := owners[i].c; to != nil {
			s.deliverTo(self, to, matches[i:], owners[i:], prefixes)
		}
	}
	self.matchOwners = owners[:0]
}

// deliverTo appends the matches owned by to and clears their owners
// entries, so deliver visits each owner once.
func (s *server) deliverTo(self, to *client, matches []mmqjp.Match, owners []owner, prefixes []byte) {
	to.mu.Lock()
	n := len(to.out)
	for i := range matches {
		o := &owners[i]
		if o.c != to {
			continue
		}
		o.c = nil
		if !to.dead {
			to.out = self.docs.appendMatch(to.out, o.prefix(prefixes), &matches[i])
		}
	}
	s.m.replyQueued(len(to.out) - n)
	if to == self {
		full := len(to.out) >= flushBytes
		to.mu.Unlock()
		if full {
			to.flush()
		}
		return
	}
	switch {
	case n == 0:
		to.progress = time.Now() // the backlog, if this becomes one, starts here
	case !to.dead && len(to.out) > maxOutboundBytes && time.Since(to.progress) > slowReaderGrace:
		s.dropSlowReader(to)
	}
	if len(to.out) > 0 && !to.draining {
		to.draining = true
		go to.drain()
	}
	to.mu.Unlock()
}

// dropSlowReader gives up on a connection with more than maxOutboundBytes
// waiting and a socket that has not come back for it in slowReaderGrace: the backlog is discarded for a
// farewell line, nothing more is queued, and the deadline unblocks whichever
// of its goroutines sits in a write or a read, so serve returns and releases
// its queries exactly as after a disconnect.
//
//mmqjp:guardedby c.mu
func (s *server) dropSlowReader(c *client) {
	log.Printf("mmqjp-server: dropping %s: %d bytes of matches behind and not reading", c.conn.RemoteAddr(), len(c.out))
	s.m.slowReaderDropped()
	c.dead = true
	farewell := errReply(errLimit, "slow reader").appendTo(nil)
	s.m.replyQueued(len(farewell) - len(c.out))
	c.out = farewell
	c.conn.SetDeadline(time.Now().Add(slowReaderGrace))
}
