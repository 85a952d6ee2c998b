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
	defined := definedFlags(string(src))
	for _, name := range []string{"addr", "workers", "viewmat", "snapshot-path"} {
		if !defined[name] {
			t.Fatalf("definedFlags missed -%s: %v", name, defined)
		}
	}

	guide := strings.Join([]string{
		"The server exposes the knobs as flags: `-workers`, `-plan auto|witness|rt`",
		"and `-split-threshold 64`.",
		"",
		"Run `cmd/mmqjp-server -async -split-threshold=1` for the ablation.",
		"",
		"`benchdiff` takes `-normalize=false`; `go test` takes `-race`.",
		"",
		"```sh",
		"$ mmqjp-server -addr :7878 -workers 8 \\",
		"    -split-threshold 256 | tee -a log",
		"$ go run ./cmd/mmqjp-bench -experiment scale",
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
