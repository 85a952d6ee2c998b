// Package capture runs an example's main from its package test and returns
// what it printed.
package capture

import (
	"io"
	"os"
	"testing"
)

// Stdout runs fn with os.Stdout redirected into a pipe and returns what fn
// wrote to it.
func Stdout(t testing.TB, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	out := make(chan []byte, 1)
	go func() {
		b, _ := io.ReadAll(r) // ends at EOF, once w is closed
		out <- b
	}()
	stdout := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = stdout }()
	fn()
	w.Close()
	return string(<-out)
}
