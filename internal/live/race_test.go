//go:build race

package live

// raceDetector reports a build under the race detector. Its scheduling
// varies the interleavings far more than a plain build, and a window of
// a multi-node write path then now and then sees a few mallocs that no
// operation makes every time (1 run in 20 of each test below).
// TestSORWritePathAllocatesNothing and TestLockedCounterAllocatesNothing
// run there for the poisoned pool, which turns a buffer with two owners
// into wrong words, and ask for their malloc-free window only without it.
const raceDetector = true
