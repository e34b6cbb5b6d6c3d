//go:build !race

package check

const RaceEnabled = false
