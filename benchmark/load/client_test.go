package load

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"
)

// fakeServer answers every request line with answer(n, line), n counting
// lines from 0, until the client hangs up.
func fakeServer(t *testing.T, answer func(n int, line string) string) *Client {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		conn, err := ln.Accept()
		ln.Close()
		if err != nil {
			return
		}
		defer conn.Close()
		sc := bufio.NewScanner(conn)
		for n := 0; sc.Scan(); n++ {
			fmt.Fprint(conn, answer(n, sc.Text()))
		}
	}()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func pubs(n int) []Op {
	ops := make([]Op, n)
	for i := range ops {
		ops[i] = Op{Lines: []byte(fmt.Sprintf("PUB S %d <a/>\n", i+1))}
	}
	return ops
}

func TestPacedTimesFromTheDueInstantAndReportsLateness(t *testing.T) {
	c := fakeServer(t, func(int, string) string { return "OK 0\n" })
	const lateOp, oversleep = 5, 30 * time.Millisecond
	calls := 0
	c.sleepUntil = func(due time.Time) {
		if calls == lateOp {
			due = due.Add(oversleep) // the generator oversleeps once
		}
		calls++
		sleepUntil(due)
	}
	latency, late, err := c.Paced(pubs(12), 200) // 5 ms period
	if err != nil {
		t.Fatal(err)
	}
	if late[lateOp] < oversleep.Seconds() {
		t.Errorf("lateness of the delayed PUB = %.4fs, want at least %.3fs", late[lateOp], oversleep.Seconds())
	}
	// Timed from when it was sent, the delayed PUB would look as fast as
	// the others; timed from when it was due, it carries the delay.
	if latency[lateOp] < oversleep.Seconds() {
		t.Errorf("latency of the delayed PUB = %.4fs, want at least %.3fs: it must count from the due instant", latency[lateOp], oversleep.Seconds())
	}
	if l, d := Median(late), Median(latency); l > 0.005 || d > 0.01 {
		t.Errorf("the undisturbed PUBs show median lateness %.4fs and latency %.4fs", l, d)
	}
	if c.Failed != 0 || c.Attempted != 12 {
		t.Errorf("attempted %d, failed %d; want 12, 0", c.Attempted, c.Failed)
	}
}

func TestPacedKeepsItsScheduleWhenTheServerStalls(t *testing.T) {
	const stall = 40 * time.Millisecond
	c := fakeServer(t, func(n int, _ string) string {
		if n == 3 {
			time.Sleep(stall)
		}
		return "OK 0\n"
	})
	latency, late, err := c.Paced(pubs(10), 200)
	if err != nil {
		t.Fatal(err)
	}
	// An open loop does not wait for replies: PUBs 4 and 5 leave on time
	// and queue behind the stalled one, so they inherit most of its wait.
	for _, i := range []int{4, 5} {
		if late[i] > 0.02 {
			t.Errorf("PUB %d left %.4fs late: the generator waited for a reply", i, late[i])
		}
		if min := (stall - time.Duration(i-3)*5*time.Millisecond).Seconds(); latency[i] < min {
			t.Errorf("PUB %d latency %.4fs, want at least %.4fs behind the stall", i, latency[i], min)
		}
	}
}

func TestClosedChecksRepliesAgainstMatchLines(t *testing.T) {
	c := fakeServer(t, func(n int, _ string) string {
		switch n {
		case 1:
			return "MATCH 7 left=1@1 right=2@2\nMATCH 8 left=1@1 right=2@2\nOK 2\n"
		case 2:
			return "MATCH 7 left=2@2 right=3@3\nOK 2\n" // one MATCH line short
		case 3:
			return "ERR EPARSE bad document\n"
		}
		return "OK 0\n"
	})
	if err := c.Closed(pubs(5), 2); err != nil {
		t.Fatal(err)
	}
	if c.Attempted != 5 || c.Failed != 2 || c.Matches != 3 {
		t.Errorf("attempted %d, failed %d, matches %d; want 5, 2, 3", c.Attempted, c.Failed, c.Matches)
	}
}

func TestDigestIgnoresTheOrderOfMatchLines(t *testing.T) {
	a := fakeServer(t, func(int, string) string { return "MATCH 1 left=1@1 right=2@2\nMATCH 2 left=1@1 right=2@2\nOK 2\n" })
	b := fakeServer(t, func(int, string) string { return "MATCH 2 left=1@1 right=2@2\nMATCH 1 left=1@1 right=2@2\nOK 2\n" })
	d := fakeServer(t, func(int, string) string { return "MATCH 2 left=1@1 right=2@2\nMATCH 3 left=1@1 right=2@2\nOK 2\n" })
	for _, c := range []*Client{a, b, d} {
		if err := c.Closed(pubs(1), 1); err != nil {
			t.Fatal(err)
		}
	}
	if a.Digest != b.Digest || a.Digest == d.Digest {
		t.Errorf("digests %x %x %x: want the first two equal and the third different", a.Digest, b.Digest, d.Digest)
	}
}

func TestADesynchronisedReplyIsAnError(t *testing.T) {
	c := fakeServer(t, func(int, string) string { return "HELLO\n" })
	if err := c.Closed(pubs(3), 2); !errors.Is(err, ErrDesync) {
		t.Errorf("err = %v, want ErrDesync", err)
	}
	c = fakeServer(t, func(n int, _ string) string { return fmt.Sprintf("OK %d\n", n+1) })
	if err := c.Subscribe(Wire{Subs: []byte(strings.Repeat("SUB S//a\n", 3)), NSubs: 3}); !errors.Is(err, ErrDesync) {
		t.Errorf("SUB ids 1,2,3 where 0,1,2 were rendered: err = %v, want ErrDesync", err)
	}
}
