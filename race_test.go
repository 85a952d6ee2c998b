//go:build race

package mmqjp

// raceEnabled reports that the race detector is on: it changes object sizes
// and sync.Pool behaviour, so the heap and allocation ceilings skip under it.
const raceEnabled = true
