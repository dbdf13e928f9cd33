// Package telemetry stands in for the hot-object sketch.
package telemetry

// Sink finds its entries through a map keyed by object id.
type Sink struct {
	idx     map[uint32]int // want `the sketch keeps no maps: map type outside internal/telemetry/prom.go`
	entries []uint64
}
