package load

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/benchmark/gen"
)

// Op is one operation of a measured phase, rendered before timing starts: a
// PUB line, preceded on churn workloads by the UNSUB and SUB lines that ride
// with it. Expect holds the exact reply to each line before the PUB; the
// PUB's own reply must be "OK <n>" with n the MATCH lines that preceded it.
type Op struct {
	Lines  []byte
	Expect []string
	PubAt  int // offset of the PUB line in Lines
}

// Wire is a script as the bytes a client sends: the SUB burst, how many
// acknowledgements it earns, and one Op per document.
type Wire struct {
	Subs  []byte
	NSubs int
	Ops   []Op
}

// Render turns a script into wire lines, before any timing starts.
func Render(sc *gen.Script) Wire {
	var b bytes.Buffer
	for _, q := range sc.Subs {
		fmt.Fprintf(&b, "SUB %s\n", q)
	}
	next := len(sc.Subs) // the id the server gives the next SUB
	ops := make([]Op, len(sc.Docs))
	for i, d := range sc.Docs {
		var lb bytes.Buffer
		if ch, ok := sc.Churn[i]; ok {
			fmt.Fprintf(&lb, "UNSUB %d\nSUB %s\n", ch.Unsub, ch.Sub)
			ops[i].Expect = []string{fmt.Sprintf("OK %d", ch.Unsub), fmt.Sprintf("OK %d", next)}
			next++
		}
		ops[i].PubAt = lb.Len()
		fmt.Fprintf(&lb, "PUB %s %d %s\n", gen.Stream, d.TS, d.XML)
		ops[i].Lines = lb.Bytes()
	}
	return Wire{Subs: b.Bytes(), NSubs: len(sc.Subs), Ops: ops}
}

// ErrDesync marks a reply stream the client can no longer attribute to its
// requests; the repeat cannot be measured.
var ErrDesync = errors.New("reply desynchronised")

// Client is one connection with one writer and one reader goroutine. It
// accumulates the output check over everything it receives.
type Client struct {
	conn net.Conn
	rd   *bufio.Reader

	// Attempted counts request lines sent; Failed counts ERR replies,
	// PUB replies whose count differs from the MATCH lines received, and
	// paced PUBs answered more than a second after they were due.
	Attempted, Failed int
	// Matches and Digest summarise every MATCH line received: the count,
	// and the sum of the lines' FNV-1a hashes, which does not depend on
	// the order of lines.
	Matches int64
	Digest  uint64
	// BytesIn counts reply bytes, MATCH lines included.
	BytesIn int64

	// sleepUntil is the pacer's wait; tests replace it to make the
	// generator run late.
	sleepUntil func(time.Time)
}

// Dial connects to the server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Client{
		conn: conn, rd: bufio.NewReaderSize(conn, 256<<10),
		sleepUntil: sleepUntil,
	}, nil
}

// sleepUntil blocks the calling thread until t. The Go runtime's timers wake
// on a millisecond grid, a tenth of a 5 ms period in mean lateness, and a
// thread woken by nanosleep on this virtual machine resumes 0.1-0.3 ms late.
// So it sleeps to within spinWindow of t and spins the rest: at 200 PUBs a
// second that busies one hardware thread for 4% of the paced phase.
func sleepUntil(t time.Time) {
	const spinWindow = 200 * time.Microsecond
	for d := time.Until(t) - spinWindow; d > 0; d = time.Until(t) - spinWindow {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil)
	}
	for time.Until(t) > 0 {
	}
}

// Close closes the connection.
func (c *Client) Close() { c.conn.Close() }

// reply reads up to the next non-MATCH line and returns it with the number
// of MATCH lines that preceded it.
func (c *Client) reply() (line string, matches int, err error) {
	for {
		b, err := c.rd.ReadSlice('\n')
		if err != nil {
			return "", matches, fmt.Errorf("%w: read: %v", ErrDesync, err)
		}
		c.BytesIn += int64(len(b))
		b = bytes.TrimRight(b, "\r\n")
		if !bytes.HasPrefix(b, []byte("MATCH ")) {
			return string(b), matches, nil
		}
		h := uint64(14695981039346656037)
		for _, ch := range b {
			h = (h ^ uint64(ch)) * 1099511628211
		}
		c.Digest += h
		c.Matches++
		matches++
	}
}

// Subscribe sends the whole SUB burst and reads every acknowledgement; ids
// must come back as 0, 1, 2, ... because later UNSUB lines were rendered
// from that numbering.
func (c *Client) Subscribe(w Wire) error {
	werr := make(chan error, 1)
	go func() {
		_, err := c.conn.Write(w.Subs)
		werr <- err
	}()
	for i := 0; i < w.NSubs; i++ {
		line, m, err := c.reply()
		if err != nil {
			return err
		}
		c.Attempted++
		if m != 0 || line != "OK "+strconv.Itoa(i) {
			return fmt.Errorf("%w: SUB %d answered %q after %d MATCH lines", ErrDesync, i, line, m)
		}
	}
	return <-werr
}

// run sends ops from a writer goroutine, gated per op by admit, and reads
// their replies on the caller's goroutine, calling done as each op's last
// reply arrives. admit returns false to stop the writer early.
func (c *Client) run(ops []Op, admit func(i int) bool, done func(i int, at time.Time)) error {
	werr := make(chan error, 1)
	go func() {
		for i := range ops {
			if !admit(i) {
				break
			}
			if _, err := c.conn.Write(ops[i].Lines); err != nil {
				werr <- err
				return
			}
		}
		werr <- nil
	}()
	for i := range ops {
		if err := c.expect(ops[i].Expect); err != nil {
			return fmt.Errorf("op %d: %w", i, err)
		}
		if _, err := c.pubReply(); err != nil {
			return fmt.Errorf("op %d: %w", i, err)
		}
		done(i, time.Now())
	}
	return <-werr
}

// expect reads the replies to an op's registration lines.
func (c *Client) expect(want []string) error {
	for _, w := range want {
		line, m, err := c.reply()
		if err != nil {
			return err
		}
		c.Attempted++
		if m != 0 || line != w {
			return fmt.Errorf("%w: want %q, got %q after %d MATCH lines", ErrDesync, w, line, m)
		}
	}
	return nil
}

// pubReply reads a PUB's MATCH lines and its reply, and returns the number
// of MATCH lines. A reply that disagrees with them, or an ERR, is a failed
// operation; anything else is a desynchronised stream.
func (c *Client) pubReply() (matches int, err error) {
	line, m, err := c.reply()
	if err != nil {
		return m, err
	}
	c.Attempted++
	switch n, ok := okCount(line); {
	case ok && n == m:
	case ok || strings.HasPrefix(line, "ERR "):
		c.Failed++
	default:
		return m, fmt.Errorf("%w: PUB answered %q", ErrDesync, line)
	}
	return m, nil
}

// Do sends one op and waits for its replies, one request in flight: the
// registration lines first, then the PUB, whose round trip and MATCH lines
// it returns.
func (c *Client) Do(op Op) (rtt time.Duration, matches int, err error) {
	if op.PubAt > 0 {
		if _, err := c.conn.Write(op.Lines[:op.PubAt]); err != nil {
			return 0, 0, err
		}
		if err := c.expect(op.Expect); err != nil {
			return 0, 0, err
		}
	}
	t0 := time.Now()
	if _, err := c.conn.Write(op.Lines[op.PubAt:]); err != nil {
		return 0, 0, err
	}
	matches, err = c.pubReply()
	return time.Since(t0), matches, err
}

func okCount(line string) (int, bool) {
	if len(line) < 4 || line[:3] != "OK " {
		return 0, false
	}
	n, err := strconv.Atoi(line[3:])
	return n, err == nil
}

// Segments is the number of equal slices, by document index, each measured
// phase is cut into. Slice j holds the same documents in every repeat.
const Segments = 10

func segOf(i, n int) int { return i * Segments / n }

// Closed runs ops in a closed loop with the given number in flight and
// returns when the last one is answered, so nothing is in flight afterwards.
func (c *Client) Closed(ops []Op, inflight int) error {
	tokens := make(chan struct{}, inflight)
	abort := make(chan struct{})
	defer close(abort)
	return c.run(ops, func(int) bool {
		select {
		case tokens <- struct{}{}:
			return true
		case <-abort:
			return false
		}
	}, func(int, time.Time) { <-tokens })
}

// Paced runs ops in an open loop at rate documents per second: op i is due
// at start + i/rate whether or not earlier ones were answered. It returns
// each op's latency, from the instant it was due to its PUB reply, and how
// late the generator sent it.
func (c *Client) Paced(ops []Op, rate float64) (latency, late []float64, err error) {
	latency, late = make([]float64, len(ops)), make([]float64, len(ops))
	start := time.Now().Add(time.Millisecond)
	due := func(i int) time.Time {
		return start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
	}
	err = c.run(ops, func(i int) bool {
		c.sleepUntil(due(i))
		late[i] = max(0, time.Since(due(i)).Seconds())
		return true
	}, func(i int, at time.Time) {
		latency[i] = at.Sub(due(i)).Seconds()
		if latency[i] > 1 {
			c.Failed++
		}
	})
	return latency, late, err
}
