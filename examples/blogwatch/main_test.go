package main

import (
	"os"
	"strings"
	"testing"

	"repro/examples/internal/capture"
)

// TestRun runs the example end to end at a small scale and checks that it
// returns and prints the engine's statistics line.
func TestRun(t *testing.T) {
	args := os.Args
	defer func() { os.Args = args }()
	os.Args = []string{"blogwatch", "-posts", "200", "-subs", "60"}
	out := capture.Stdout(t, main)
	if !strings.Contains(out, "documents=") {
		t.Errorf("no statistics line in the output:\n%s", out)
	}
}
