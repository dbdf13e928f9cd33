// Package oracle stands in for the LRC check.
package oracle

// HomeList is a side list beside the per-id tables.
type HomeList []int32 // want `no side lists: HomeList declared`

type timedRecorder struct{} // want `chaos parity is the grid's digest comparison: timedRecorder declared`
