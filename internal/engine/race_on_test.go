//go:build race

package engine

// raceEnabled reports whether the race detector is compiled in; allocation
// budgets are skipped under -race.
const raceEnabled = true
