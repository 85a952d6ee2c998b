// Command mmqjplint runs the repo-invariant static-analysis suite: mapiter
// (no order-sensitive map iteration on the output path), guarded (lock
// discipline for //mmqjp:guardedby annotations), nodeterm (no wall clock or
// math/rand in the core outside annotated sites) and pooled (every sync.Pool
// argues its reuse is safe) — plus validation of the //mmqjp: directive
// grammar itself.
//
// Usage:
//
//	mmqjplint ./...
//
// It exits nonzero if any diagnostic is reported. The module is type-checked
// offline with the standard library's source importer; there are no
// dependencies beyond the Go toolchain.
package main

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/lint"
	"repro/internal/lint/rules"
)

func main() {
	patterns := os.Args[1:]
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "mmqjplint:", err)
		os.Exit(2)
	}
	prog, err := lint.Load(root, patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mmqjplint:", err)
		os.Exit(2)
	}
	diags := lint.Run(prog, rules.Default())
	for _, d := range diags {
		rel, err := filepath.Rel(root, d.Pos.Filename)
		if err != nil || rel == "" {
			rel = d.Pos.Filename
		}
		fmt.Printf("%s:%d:%d: [%s] %s\n", rel, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "mmqjplint: %d diagnostic(s)\n", len(diags))
		os.Exit(1)
	}
}

// moduleRoot walks up from the working directory to the enclosing go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}
