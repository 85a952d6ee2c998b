package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGolden runs xsclc in process on the paper's Q1–Q3 and on a stdin list
// of 30 paper-scale queries, and compares every byte — join graphs with
// their canonical variable names, minors, template numbering and Datalog —
// with the golden files in testdata, which were written by the derivation
// that built every string afresh per query. Template identity and the
// canonical node order are frozen (they key templates and lay out RT rows),
// so the report must not move.
func TestGolden(t *testing.T) {
	stdin, err := os.ReadFile(filepath.Join("testdata", "paper_scale.xscl"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		golden string
		args   []string
		stdin  []byte
	}{
		{"paper.golden", []string{"-paper"}, nil},
		{"paper_scale.golden", []string{"-"}, stdin},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := run(tc.args, bytes.NewReader(tc.stdin), &out); err != nil {
			t.Fatalf("%s: %v", tc.golden, err)
		}
		if got := out.Bytes(); !bytes.Equal(got, want) {
			i := 0
			for i < len(got) && i < len(want) && got[i] == want[i] {
				i++
			}
			t.Errorf("%s: output differs at byte %d:\ngot  %q\nwant %q", tc.golden, i,
				got[max(0, i-80):min(len(got), i+80)], want[max(0, i-80):min(len(want), i+80)])
		}
	}
}

func TestUsage(t *testing.T) {
	if err := run(nil, nil, &bytes.Buffer{}); err == nil || !strings.HasPrefix(err.Error(), "usage:") {
		t.Errorf("no arguments: %v, want the usage error", err)
	}
	if err := run([]string{"S//a->x JOIN{x=q, 1} S//b->y"}, nil, &bytes.Buffer{}); err == nil {
		t.Error("a query outside value-join normal form was accepted")
	}
}
