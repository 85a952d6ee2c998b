//go:build race

package core

// raceEnabled reports that the race detector is on. Under it sync.Pool drops
// a quarter of its Puts at random, so allocation counts that depend on pooled
// scratch coming back are not the fixed numbers the ceilings pin.
const raceEnabled = true
