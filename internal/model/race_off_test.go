//go:build !race

package model

const raceEnabled = false

// RaceEnabled exports raceEnabled to the external test package.
const RaceEnabled = raceEnabled
