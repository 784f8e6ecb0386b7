// Purity scope fixture for the cache layer: resultcache is a purity
// entry point with no sanctioned source — its canonical keys must be
// pure, and a store of deterministic answers needs no clock.
package resultcache

import "lintfixtures/util"

// ExpiresAt reaches the wall clock through a helper: an error here, as
// the same chain is from a scheduler package. One finding.
func ExpiresAt() float64 {
	return util.WallElapsed() // want purity
}

// SeedFromGlobal reaches the global generator through a helper. One
// finding.
func SeedFromGlobal(n int) int {
	return util.Draw(n) // want purity
}
