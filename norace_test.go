//go:build !race

package mmqjp

const raceEnabled = false
