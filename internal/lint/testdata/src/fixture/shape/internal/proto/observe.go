package proto

// A map[K]V keyed by object would hold a second copy of each fact; this
// comment names one and is no finding.
type table []int32

var byObj map[int32]int32 // want `the protocol core keeps no maps: map type in repro/internal/proto`
