package main

import (
	"bufio"
	"bytes"
	"net"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	mmqjp "repro"
)

// wireSeeds are the sessions of main_test.go and durable_test.go, one request
// per line, then sessions that reach further into the engine: the paper's
// two-predicate join, window expiry, templates shared and unsubscribed, empty
// and one-document batches, streams no query reads, self-joins, entities, and
// every verb without its arguments.
var wireSeeds = []string{
	"SUB S//a->x JOIN{x=y, 100} S//b->y\nPUB S 1 <a>v</a>\nPUB S 2 <b>v</b>\n",
	"SUB S//a->x FOLLOWED BY{x=y, 100} S//b->y\nPUBB S 3\n1 <a>k</a>\n2 <b>k</b>\n3 <b>k</b>\n",
	"PUBB S\nPUBB S notanumber\nPUBB S 9000000000\nPUBB S 2\n1 <a>k</a>\nnotanumber <b>k</b>\nPUBB S 2\n1 <a>k</a>\n2 <unclosed>\nPUB S 5 <b>k</b>\n",
	"SUB S//a->x JOIN{x=y, 100} S//b->y\nPUB S -5 <a>k</a>\nPUBB S 2\n1 <a>k</a>\n-1 <a>k</a>\nPUB S 3 <b>k</b>\n",
	"SUB not[valid\nPUB S notanumber <a/>\nPUB S 1 <unclosed>\nNOSUCH verb\nSTATS\n",
	"SUB S//a->x FOLLOWED BY{x=y, 1000} S//b->y\nPUB S 1 <a>k</a>\nPUB S 2 <unclosed>\nPUB S 3 <b>k</b>\nUNSUB 0\nPUB S 4 <b>k</b>\n",
	"SUB S//a->x JOIN{x=y, 100} S//b->y\nPUB S 1 <a>v</a>\nPUB S 2 <b>v</b>\nQUIT\nPUB S 3 <b>v</b>\n",
	"SUB S//a->x JOIN{x=y, 100} S//b->y\nUNSUB 0\nUNSUB 0\nUNSUB notanumber\nUNSUB 4242\nCLAIM notanumber\nCLAIM 4242\nCLAIM 0\n",
	"SUB S//a->x JOIN{x=y, 100} S//b->y\nPUB S 1 <a>v</a>\nPUB S 2 <b>v</b>\nUNSUB 0\nCLAIM 0\nPUB S 3 <b>v</b>\n",
	"sub S//a->x JOIN{x=y, 100} S//b->y\r\n\r\n  pub S 1 <a>v</a>  \r\npUb S 2 <b>v</b>\n\nstats\nquit\n",
	"PUBB S 4\n1 <a>k</a>\n",
	"SUB S//book->x1[.//author->x2][.//title->x3] FOLLOWED BY{x2=x5 AND x3=x6, 1000} S//blog->x4[.//author->x5][.//title->x6]\nPUB S 100 <book><author>A</author><title>T</title></book>\nPUB S 200 <blog><author>A</author><title>T</title></blog>\n",
	"SUB S//a->x JOIN{x=y, 100} S//b->y\nSUB S//c->x JOIN{x=y, 100} S//d->y\nPUBB S 4\n1 <a>k</a>\n2 <c>k</c>\n3 <b>k</b>\n4 <d>k</d>\n",
	"SUB S//a->x FOLLOWED BY{x=y, 5} S//b->y\nPUB S 1 <a>k</a>\nPUB S 100 <b>k</b>\nPUB S 101 <a>k</a>\nPUB S 103 <b>k</b>\n",
	"SUB S//a->x JOIN{x=y, 100} S//b->y\nPUBB S 0\nPUB S 1 <a>k</a>\nPUBB S 1\n2 <b>k</b>\n",
	"SUB T//a->x JOIN{x=y, 100} T//b->y\nPUB S 1 <a>k</a>\nPUB T 2 <a>k</a>\nPUB T 3 <b>k</b>\nPUB S 4 <b>k</b>\n",
	"SUB S//a->x FOLLOWED BY{x=y, 100} S//a->y\nPUB S 1 <a>k</a>\nPUB S 2 <a>k</a>\nPUB S 3 <a>k</a>\n",
	"SUB S//a->x JOIN{x=y, 100} S//b->y\nSUB S//a->x JOIN{x=y, 200} S//b->y\nPUB S 1 <a>k</a>\nUNSUB 1\nPUB S 2 <b>k</b>\nSUB S//a->x JOIN{x=y, 100} S//b->y\nPUB S 3 <b>k</b>\n",
	"SUB S//r->x1[./p->x2][./q->x3] FOLLOWED BY{x2=x5 AND x3=x6, 100} S//s->x4[./p->x5][./q->x6]\nPUB S 1 <r><p>1</p><q>2</q></r>\nPUB S 2 <s><p>1</p><q>2</q></s>\nPUB S 3 <s><p>1</p><q>3</q></s>\n",
	"PUB\nPUB S\nPUB S 1\nUNSUB\nCLAIM\nSUB\nPUBB\nSTATS extra\n",
	"SUB S//a->x JOIN{x=y, 100} S//b->y\nPUBB S 2\n1 <a>x &amp; y</a>\n2 <b>x &amp; y</b>\nSTATS\n",
	"SUB S//a->x JOIN{x=y, 100} S//b->y\nPUBB S 3\n1 <a>k</a>\n2 <a>k</a>\n3 <a>k</a>\nPUB S 4 <b>k</b>\nPUB S 5 <b><x>k</x></b>\n",
}

var (
	matchLineRe = regexp.MustCompile(`^MATCH \d+ left=\d+@\d+ right=\d+@\d+$`)
	okCountRe   = regexp.MustCompile(`^OK \d+$`)
	errLineRe   = regexp.MustCompile(`^ERR (EPROTO|EPARSE|EQUERY|ELIMIT) .+$`)
)

// wireRequest is what the harness expects one request to be answered with.
type wireRequest struct {
	line    string
	publish bool // PUB or PUBB: an OK counts the MATCH lines before it
	stats   bool
}

// frameSession splits fuzz input into the requests the server will see,
// following its framing rules (blank lines skipped, a well-formed PUBB header
// owns the next n lines, QUIT ends the session), and returns the bytes to
// send. A batch the input leaves short is completed, and a session that does
// not quit is ended with STATS and QUIT, so the server always answers and
// closes. ok is false for a batch that would need more padding than a fuzz
// iteration should spend.
func frameSession(input []byte) (script []byte, requests []wireRequest, ok bool) {
	var out bytes.Buffer
	lines := bytes.Split(input, []byte("\n"))
	for i := 0; i < len(lines); i++ {
		out.Write(lines[i])
		out.WriteByte('\n')
		line := strings.TrimSpace(string(lines[i]))
		if line == "" {
			continue
		}
		verbText, rest, _ := strings.Cut(line, " ")
		verb := []byte(verbText)
		req := wireRequest{line: line}
		switch {
		case verbIs(verb, "QUIT"):
			return out.Bytes(), requests, true
		case verbIs(verb, "PUB"):
			req.publish = true
		case verbIs(verb, "STATS"):
			req.stats = true
		case verbIs(verb, "PUBB"):
			if _, n, _, wellFormed := batchHeader([]byte(rest)); wellFormed {
				req.publish = true
				for ; n > 0 && i+1 < len(lines); n-- {
					i++
					out.Write(lines[i])
					out.WriteByte('\n')
				}
				if n > 64 {
					return nil, nil, false
				}
				out.WriteString(strings.Repeat("0 <pad/>\n", n))
			}
		}
		requests = append(requests, req)
	}
	out.WriteString("STATS\nQUIT\n")
	return out.Bytes(), append(requests, wireRequest{line: "STATS", stats: true}), true
}

// FuzzWireSession feeds arbitrary bytes, as lines, to an in-process server on
// a synchronous pipe: the server must not panic or hang, every reply line
// must be well-formed, every request gets exactly one non-MATCH reply, MATCH
// lines come only in front of a publish's OK, which counts them (the
// session's one connection owns every query), and the stream is still
// line-synchronised at the end — the closing STATS is answered in its place
// and nothing follows. The engine is built as the server builds it.
func FuzzWireSession(f *testing.F) {
	for _, seed := range wireSeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, input []byte) {
		if len(input) > 16<<10 {
			t.Skip("longer than a fuzz iteration should spend")
		}
		script, requests, ok := frameSession(input)
		if !ok {
			t.Skip("batch needs too much padding")
		}
		s := &server{}
		s.eng = mmqjp.New(s.engineOptions())
		cli, srv := net.Pipe()
		defer cli.Close()
		served := make(chan struct{})
		go func() { defer close(served); s.serve(s.newClient(srv)) }()
		// The pipe is synchronous and the server reads ahead of replying:
		// requests go out on their own goroutine while this one reads. The
		// write fails once the server has quit, which is fine.
		go func() { cli.Write(script) }()

		cli.SetReadDeadline(time.Now().Add(20 * time.Second))
		sc := bufio.NewScanner(cli)
		sc.Buffer(nil, 2*maxLineBytes)
		answered, matches := 0, 0
		for sc.Scan() {
			line := sc.Text()
			if matchLineRe.MatchString(line) {
				matches++
				continue
			}
			if answered == len(requests) {
				t.Fatalf("reply %q after all %d requests were answered", line, len(requests))
			}
			req := requests[answered]
			answered++
			switch {
			case errLineRe.MatchString(line):
			case req.stats:
				if !strings.HasPrefix(line, "OK sequential=false queries=") {
					t.Fatalf("%q answered %q", req.line, line)
				}
			case !okCountRe.MatchString(line):
				t.Fatalf("%q answered %q: neither OK <n> nor ERR <known code> <message>", req.line, line)
			case req.publish:
				if n, _ := strconv.Atoi(line[3:]); n != matches {
					t.Fatalf("%q answered %q after %d MATCH lines", req.line, line, matches)
				}
			}
			if matches > 0 && !req.publish {
				t.Fatalf("%d MATCH lines in front of the reply to %q", matches, req.line)
			}
			matches = 0
		}
		if err, ok := sc.Err().(net.Error); ok && err.Timeout() {
			t.Fatalf("server hung after %d of %d replies", answered, len(requests))
		}
		if answered != len(requests) || matches != 0 {
			t.Fatalf("%d replies to %d requests, %d trailing MATCH lines", answered, len(requests), matches)
		}
		<-served
	})
}
