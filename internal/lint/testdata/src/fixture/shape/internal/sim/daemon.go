package sim

import "iter"

// daemon runs a node daemon as a second coroutine beside the proc's.
func daemon(seq iter.Seq[int]) int {
	next, _ := iter.Pull(seq) // want `a sim proc is one coroutine: use of iter.Pull outside internal/sim/sim.go`
	v, _ := next()
	return v
}
