//go:build race

package main

// raceEnabled reports whether the race detector is compiled in; the smoke
// run's time limit is skipped under -race, which slows the solver severalfold.
const raceEnabled = true
