//go:build race

package live

// raceEnabled: under the race detector sync.Pool drops a share of its
// Puts, so pooled transport frames allocate now and then.
const raceEnabled = true
