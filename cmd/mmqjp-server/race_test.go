//go:build race

package main

// raceEnabled reports that the race detector is on: it changes object sizes
// and sync.Pool behaviour, so the allocation ceiling skips under it.
const raceEnabled = true
