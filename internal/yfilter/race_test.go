//go:build race

package yfilter

// raceEnabled reports that the race detector is on: it makes sync.Pool drop
// Puts at random, so the allocation test skips under it.
const raceEnabled = true
