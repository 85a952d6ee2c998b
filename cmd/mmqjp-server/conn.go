package main

import (
	"log"
	"net"
	"strconv"
	"sync"
	"time"
	"unsafe"

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

// renderTails renders the tail of every frame of ms, `<doc>@<ts>
// right=<doc>@<ts>\n`, into c's scratch, where tail finds it. A MATCH line is
// its query's prefix (ownerTable) and its frame's tail, so a publish renders
// each frame once however many queries share it.
func (c *client) renderTails(ms *mmqjp.Matches) {
	b, at := c.tails[:0], append(c.tailAt[:0], 0)
	for _, f := range ms.Frames {
		b = append(strconv.AppendInt(b, f.LeftDoc, 10), '@')
		b = append(strconv.AppendInt(b, f.LeftTS, 10), " right="...)
		b = append(strconv.AppendInt(b, f.RightDoc, 10), '@')
		b = append(strconv.AppendInt(b, f.RightTS, 10), '\n')
		at = append(at, uint32(len(b)))
	}
	c.tails, c.tailAt = b, at
}

// tail returns frame f's tail from the last renderTails.
func (c *client) tail(f int32) []byte { return c.tails[c.tailAt[f]:c.tailAt[f+1]] }

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

	// res is the handler's result buffer: a publish's matches are written
	// into it (Engine.AppendPublishXML, or Matches.Append for a PUBB batch)
	// and encoded into the owners' outbound buffers before the handler
	// reads its next request, so every publish of the connection uses the
	// same one. matchOwners, tails and tailAt are deliver's scratch.
	res         mmqjp.Matches
	matchOwners []owner
	tails       []byte
	tailAt      []uint32 // frame f's tail is tails[tailAt[f]:tailAt[f+1]]

	// line assembles a request line longer than the read buffer
	// (client.readLine). Only the handler touches it.
	line []byte
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

// ackPublish completes a publish's reply group at c's reply slot, once
// deliver has routed its MATCH lines: c gets OK <total> and its group is
// written. Scratch a burst grew past flushBytes is released, as an outbound
// buffer past twice that is after its write.
func (s *server) ackPublish(c *client, stream string, docs, total int) {
	s.m.published(stream, docs, total)
	c.enqueue(okReply(int64(total)))
	c.flush()
	if cap(c.res.Entries)*int(unsafe.Sizeof(mmqjp.MatchEntry{})) > flushBytes || cap(c.tails) > flushBytes {
		c.res, c.matchOwners, c.tails, c.tailAt = mmqjp.Matches{}, nil, nil, nil
	}
}

// deliver appends the MATCH lines of ms to the connections owning the
// matched queries: each frame's tail is rendered once into self's scratch,
// owners and prefixes are resolved under the read lock, then each owner's
// lines are encoded into its buffer under one acquisition of its lock. self
// is the publishing connection, whose own lines wait for its OK.
func (s *server) deliver(self *client, ms *mmqjp.Matches) {
	if ms.Len() == 0 {
		return
	}
	self.renderTails(ms)
	owners := self.matchOwners[:0]
	s.mu.RLock()
	prefixes := s.owners.prefixes
	for i := range ms.Entries {
		o, _ := s.owners.get(ms.Entries[i].Query)
		owners = append(owners, o)
	}
	s.mu.RUnlock()
	for i := range owners {
		if to := owners[i].c; to != nil {
			s.deliverTo(self, to, ms.Entries[i:], owners[i:], prefixes)
		}
	}
	self.matchOwners = owners[:0]
}

// deliverTo appends the lines of the entries owned by to and clears their
// owners entries, so deliver visits each owner once.
func (s *server) deliverTo(self, to *client, entries []mmqjp.MatchEntry, owners []owner, prefixes []byte) {
	to.mu.Lock()
	n := len(to.out)
	for i := range entries {
		o := &owners[i]
		if o.c != to {
			continue
		}
		o.c = nil
		if !to.dead {
			to.out = append(append(to.out, o.prefix(prefixes)...), self.tail(entries[i].Frame)...)
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
