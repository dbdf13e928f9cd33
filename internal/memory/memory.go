// Package memory defines the object model of the Global Object Space: the
// coherence unit is an object (paper §3.3 — "to match the Java memory
// model, the coherence unit in our GOS is a Java object"), represented as
// a fixed-length vector of 64-bit words. Each node keeps home copies and
// cached copies with TreadMarks-style access states.
package memory

import "fmt"

// NodeID identifies a cluster node. NoNode means "none".
type NodeID int16

// NoNode is the absent-node sentinel (e.g. "no last writer").
const NoNode NodeID = -1

// ObjectID identifies a shared object across the whole cluster.
type ObjectID uint32

// AccessState is the per-copy software access state used to trap accesses.
// The GOS sets the home copy to Invalid on lock acquire and ReadOnly on
// release so home reads/writes fault exactly once per synchronization
// interval and can be recorded (§3.3).
type AccessState uint8

const (
	// Invalid: any access faults. Cached copies start here; home copies
	// are driven here at acquires for access monitoring.
	Invalid AccessState = iota
	// ReadOnly: reads hit, writes fault (twin creation point).
	ReadOnly
	// ReadWrite: all accesses hit.
	ReadWrite
)

func (s AccessState) String() string {
	switch s {
	case Invalid:
		return "INV"
	case ReadOnly:
		return "RO"
	case ReadWrite:
		return "RW"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// Object is one copy (home or cached) of a shared object on some node.
type Object struct {
	ID    ObjectID
	Data  []uint64
	State AccessState
	// Twin is the pre-write snapshot of a cached copy, nil when clean.
	// Home copies never twin: their writes go directly to the
	// authoritative data (§3.1).
	Twin []uint64
	// Dirty marks a cached copy with un-flushed writes.
	Dirty bool
}

// NewObject allocates a zeroed object of the given word count.
func NewObject(id ObjectID, words int) *Object {
	if words <= 0 {
		panic(fmt.Sprintf("memory: object %d with %d words", id, words))
	}
	return &Object{ID: id, Data: make([]uint64, words), State: ReadWrite}
}
