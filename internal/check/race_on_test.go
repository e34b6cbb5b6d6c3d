//go:build race

package check

// RaceEnabled tells the external test package that the race detector
// is on, so it can leave out single-goroutine runs of large worlds.
const RaceEnabled = true
