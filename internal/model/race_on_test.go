//go:build race

package model

// raceEnabled gates tests whose assertions (allocation counting) are
// meaningless under the race detector's instrumented allocator.
const raceEnabled = true

// RaceEnabled exports raceEnabled to the external test package.
const RaceEnabled = raceEnabled
