//go:build !race

package yfilter

const raceEnabled = false
