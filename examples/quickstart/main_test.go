package main

import (
	"strings"
	"testing"

	"repro/examples/internal/capture"
)

// TestRun runs the example end to end and checks that it returns and prints
// the engine's statistics line.
func TestRun(t *testing.T) {
	out := capture.Stdout(t, main)
	if !strings.Contains(out, "documents=") {
		t.Errorf("no statistics line in the output:\n%s", out)
	}
}
