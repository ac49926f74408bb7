//go:build race

package population

// raceEnabled reports whether the race detector is instrumenting this test
// binary, which slows single-goroutine sweeps tenfold without checking
// anything more in them.
const raceEnabled = true
