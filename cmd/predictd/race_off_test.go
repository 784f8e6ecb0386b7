//go:build !race

package main

// raceEnabled reports whether the race detector is compiled in; see
// TestPredictdCacheReplay for the one assertion it gates.
const raceEnabled = false
