package main

import (
	"os"
	"strings"
	"testing"
)

// TestServerFlagsRemovedFlagReported feeds checkServerFlags a guide that
// still advertises -split-threshold (a flag the server used to have) in each
// of the three attachment forms, against the flags the real server defines:
// the dead flag is reported everywhere, live flags and other tools' flags
// are not.
func TestServerFlagsRemovedFlagReported(t *testing.T) {
	src, err := os.ReadFile("../mmqjp-server/main.go")
	if err != nil {
		t.Fatal(err)
	}
	defined := definedNames(flagDefRe, string(src))
	for _, name := range []string{"addr", "debug-addr", "snapshot-gzip", "snapshot-path"} {
		if !defined[name] {
			t.Fatalf("flagDefRe missed -%s: %v", name, defined)
		}
	}

	guide := strings.Join([]string{
		"The server exposes the knobs as flags: `-snapshot-gzip`, `-snapshot-every 30s`",
		"and `-split-threshold 64`.",
		"",
		"Run `cmd/mmqjp-server -snapshot-gzip=false -split-threshold=1` for the ablation.",
		"",
		"`mmqjp-bench` takes `-seq-rss-items 100`; `go test` takes `-race`.",
		"",
		"```sh",
		"$ mmqjp-server -addr :7878 -debug-addr :9090 \\",
		"    -split-threshold 256 | tee -a log",
		"$ go run ./cmd/mmqjp-bench -experiment fig16",
		"```",
		"",
		"```text",
		"mmqjp-server -split-threshold 1",
		"```",
	}, "\n")
	msgs := checkServerFlags("GUIDE.md", guide, defined)
	wantLines := []string{"GUIDE.md:2:", "GUIDE.md:4:", "GUIDE.md:9:"}
	if len(msgs) != len(wantLines) {
		t.Fatalf("got %d diagnostics, want %d:\n%s", len(msgs), len(wantLines), strings.Join(msgs, "\n"))
	}
	for i, want := range wantLines {
		if !strings.HasPrefix(msgs[i], want) || !strings.Contains(msgs[i], "-split-threshold") {
			t.Errorf("diagnostic %d = %q, want %s ... -split-threshold", i, msgs[i], want)
		}
	}
}

// TestCommandsRetiredCommandReported feeds checkCommands a guide that still
// quotes a make target, a ./cmd directory and an mmqjp-bench experiment that
// do not exist, inline and in a fenced block, against the real Makefile and
// tree: each dead command is reported, live commands, prose and ```go blocks
// are not.
func TestCommandsRetiredCommandReported(t *testing.T) {
	src, err := os.ReadFile("../../Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := definedNames(makeTargetRe, string(src))
	for _, name := range []string{"build", "bench", "docs-check", "ci"} {
		if !targets[name] {
			t.Fatalf("makeTargetRe missed %s: %v", name, targets)
		}
	}

	guide := strings.Join([]string{
		"Run `make ci`, then `make bench-gate`; make sure both pass.",
		"",
		"```sh",
		"make build bench-json   # writes a result file",
		"go run ./cmd/benchcompare -threshold 20",
		"go run ./cmd/mmqjp-bench -experiment table3,scale,fig16",
		"go run -C benchmark ./cmd/bench -trace 0",
		"go run -C benchmark ./cmd/mmqjp-bench",
		"```",
		"",
		"`mmqjp-bench -experiment all|workers` and `go run ./cmd/docscheck README.md`.",
		"",
		"```go",
		"// make believe: go run ./cmd/nothing -experiment nothing",
		"```",
	}, "\n")
	msgs := checkCommands("GUIDE.md", guide, "../..", targets)
	want := []string{
		`GUIDE.md:1: the Makefile has no target "bench-gate"`,
		`GUIDE.md:4: the Makefile has no target "bench-json"`,
		`GUIDE.md:5: go run: no directory cmd/benchcompare`,
		`GUIDE.md:6: mmqjp-bench has no experiment "scale"`,
		`GUIDE.md:8: go run: no directory benchmark/cmd/mmqjp-bench`,
		`GUIDE.md:11: mmqjp-bench has no experiment "workers"`,
	}
	if strings.Join(msgs, "\n") != strings.Join(want, "\n") {
		t.Errorf("got:\n%s\nwant:\n%s", strings.Join(msgs, "\n"), strings.Join(want, "\n"))
	}
}
