// Package reach is the root package of the reachable pass's fixture module.
// Its test binary is a root, as the repository's benchmarks are.
package reach

// Bench is reached from the root package's test alone.
func Bench() int { return 1 }
