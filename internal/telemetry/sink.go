package telemetry

import (
	"sort"
	"sync"

	"repro/internal/flight"
	"repro/internal/memory"
	"repro/internal/migration"
)

// AccessKind is a column of the sketch: what a counted event was to its
// object.
type AccessKind uint8

const (
	// HomeRead is a trapped read at the home copy.
	HomeRead AccessKind = iota
	// HomeWrite is a trapped write at the home copy.
	HomeWrite
	// RemoteFault is a fault-in request arriving at the home from a
	// remote node (the trace classifier's Request events).
	RemoteFault
	// RemoteWrite is a remote diff applied at the home.
	RemoteWrite
	// ObjMigration is a home migration of the object.
	ObjMigration
	// NumAccessKinds bounds the per-kind count array.
	NumAccessKinds
)

var accessKindNames = [NumAccessKinds]string{
	"home_read", "home_write", "remote_fault", "remote_write", "migration",
}

// String names the kind for Prometheus labels.
func (k AccessKind) String() string {
	if k < NumAccessKinds {
		return accessKindNames[k]
	}
	return "unknown"
}

// TopEntry is one object in the hot-set report. Count is the
// space-saving estimate of total accesses (migrations excluded); Err
// bounds its overestimation. The true count lies in [Count-Err, Count].
type TopEntry struct {
	Obj   memory.ObjectID
	Count uint64
	Err   uint64
	Kinds [NumAccessKinds]uint64
}

// Remote returns the remote-access share of the entry's observed
// accesses in [0,1] — the imbalance signal an adaptive policy reads.
func (e TopEntry) Remote() float64 {
	total := e.Kinds[HomeRead] + e.Kinds[HomeWrite] + e.Kinds[RemoteFault] + e.Kinds[RemoteWrite]
	if total == 0 {
		return 0
	}
	return float64(e.Kinds[RemoteFault]+e.Kinds[RemoteWrite]) / float64(total)
}

// DefaultTopK is the sketch width used when callers pass k <= 0:
// enough to hold every object exactly in the scenario families, small
// enough that the worst-case eviction scan stays cheap.
const DefaultTopK = 64

// Sink is a space-saving (Metwally et al.) top-K sketch over object
// accesses plus migration-decision counters. It is a flight.Subscriber:
// every node of a run feeds the one sink its access and Decision events,
// and Record stays allocation-free in steady state.
type Sink struct {
	mu       sync.Mutex
	k        int
	idx      map[memory.ObjectID]int
	entries  []entry
	total    uint64
	migrated [migration.NumReasons]int64
	stayed   [migration.NumReasons]int64
}

type entry struct {
	obj   memory.ObjectID
	count uint64
	err   uint64
	kinds [NumAccessKinds]uint64
}

// NewSink creates a sketch tracking at most k objects exactly-ish;
// k <= 0 means DefaultTopK.
func NewSink(k int) *Sink {
	if k <= 0 {
		k = DefaultTopK
	}
	return &Sink{
		k:       k,
		idx:     make(map[memory.ObjectID]int, k),
		entries: make([]entry, 0, k),
	}
}

var sinkKinds = flight.MaskOf(flight.HomeRead, flight.HomeWrite, flight.Request,
	flight.RemoteWrite, flight.Decision)

// Kinds implements flight.Subscriber.
func (s *Sink) Kinds() flight.Mask { return sinkKinds }

// Record implements flight.Subscriber. A trapped home access, a served
// fault-in or an applied remote diff counts one access to its object; a
// Decision counts by reason and, when it migrated, marks the object.
//
//dsm:hotpath
func (s *Sink) Record(ev flight.Event) {
	s.mu.Lock()
	switch ev.Kind {
	case flight.HomeRead:
		s.count(ev.Obj, HomeRead)
	case flight.HomeWrite:
		s.count(ev.Obj, HomeWrite)
	case flight.Request:
		s.count(ev.Obj, RemoteFault)
	case flight.RemoteWrite:
		s.count(ev.Obj, RemoteWrite)
	case flight.Decision:
		if ev.Reason < migration.NumReasons {
			if ev.Migrated {
				s.migrated[ev.Reason]++
			} else {
				s.stayed[ev.Reason]++
			}
		}
		if ev.Migrated {
			s.count(ev.Obj, ObjMigration)
		}
	}
	s.mu.Unlock()
}

// count bumps obj's kind column, with s.mu held. Monitored objects
// increment in place; an unmonitored object evicts the current minimum,
// inheriting its count as the overestimation error (the space-saving
// update rule). Migrations mark the object without counting as an
// access.
//
//dsm:hotpath
func (s *Sink) count(obj memory.ObjectID, kind AccessKind) {
	access := uint64(1)
	if kind == ObjMigration {
		access = 0
	}
	s.total += access
	i, ok := s.idx[obj]
	switch {
	case ok:
	case len(s.entries) < s.k:
		s.entries = append(s.entries, entry{obj: obj})
		i = len(s.entries) - 1
		s.idx[obj] = i
	default:
		// Evict the minimum-count entry. Linear scan: k is small and this
		// only runs on sketch misses.
		for j := 1; j < len(s.entries); j++ {
			if s.entries[j].count < s.entries[i].count {
				i = j
			}
		}
		e := &s.entries[i]
		delete(s.idx, e.obj)
		s.idx[obj] = i
		*e = entry{obj: obj, count: e.count, err: e.count}
	}
	e := &s.entries[i]
	e.count += access
	e.kinds[kind]++
}

// Total returns the number of recorded accesses (migrations excluded).
func (s *Sink) Total() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// Top returns the n hottest monitored objects, sorted by estimated
// count descending (object id ascending on ties, so reports are
// deterministic). n <= 0 returns all monitored objects.
func (s *Sink) Top(n int) []TopEntry {
	s.mu.Lock()
	out := make([]TopEntry, 0, len(s.entries))
	for _, e := range s.entries {
		out = append(out, TopEntry{Obj: e.obj, Count: e.count, Err: e.err, Kinds: e.kinds})
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Obj < out[j].Obj
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// Decisions returns copies of the per-reason migration-decision
// counters, indexed by migration.Reason ordinal.
func (s *Sink) Decisions() (migrated, stayed []int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	migrated = append([]int64(nil), s.migrated[:]...)
	stayed = append([]int64(nil), s.stayed[:]...)
	return migrated, stayed
}
