// Package telemetry is the live observability substrate: a metric
// registry of read functions (counters, gauges, bridges to stats.Hist),
// a fixed-interval sampler that snapshots registered metrics into
// fixed-capacity ring time-series without allocating (sampler.go), and
// a space-saving top-K sketch of per-object access behavior (sink.go).
// The Sink is a flight.Subscriber: proto.Node.Emit hands it the trapped home
// reads/writes, served fault-ins, applied remote diffs and migration
// decisions of every node it is attached to — the same events, from the
// same emission, the flight ring and the trace classifier see.
//
// The package never reads the wall clock and never feeds back into
// protocol decisions: the sampler takes its timestamps from the
// caller, so the deterministic engines can carry a Sink without
// perturbing digests, and detlint holds this package to the same
// no-wall-clock bar as the simulation core.
package telemetry

import (
	"sync"

	"repro/internal/stats"
)

// Kind classifies a scalar metric for Prometheus TYPE lines.
type Kind uint8

const (
	KindCounter Kind = iota
	KindGauge
)

// String returns the Prometheus TYPE keyword.
func (k Kind) String() string {
	if k == KindCounter {
		return "counter"
	}
	return "gauge"
}

// scalar is one registered scalar metric: a name, metadata, and a
// read function that must be cheap and safe to call concurrently with
// the code being measured (atomics, or a read under the owner's lock).
type scalar struct {
	name  string
	help  string
	label string // extra label fragment, e.g. `peer="2"`; "" for none
	kind  Kind
	read  func() int64
}

// histogram is one registered stats.Hist bridge. fill must write a
// consistent snapshot of the histogram into dst (taking whatever lock
// guards the source buckets).
type histogram struct {
	name  string
	help  string
	label string
	fill  func(dst *stats.Hist)
}

// Registry holds the metrics one node exposes. Registration happens at
// startup; reads (Snapshot, Sampler.Tick) may run concurrently with
// the metrics being updated.
type Registry struct {
	node   int
	common string // label fragment stamped on every series, e.g. `policy="AT"`

	mu      sync.Mutex
	scalars []scalar
	hists   []histogram
	sink    *Sink
}

// NewRegistry creates a registry for one node. common is a label
// fragment (`policy="AT"`) rendered on every series this node exports;
// it may be empty.
func NewRegistry(node int, common string) *Registry {
	return &Registry{node: node, common: common}
}

// SetCommon replaces the label fragment (a cluster member's registry
// exists before its run names the policy).
func (r *Registry) SetCommon(common string) {
	r.mu.Lock()
	r.common = common
	r.mu.Unlock()
}

// CounterFunc registers a counter whose value comes from read.
func (r *Registry) CounterFunc(name, help, label string, read func() int64) {
	r.register(scalar{name: name, help: help, label: label, kind: KindCounter, read: read})
}

// GaugeFunc registers a gauge whose value comes from read.
func (r *Registry) GaugeFunc(name, help, label string, read func() int64) {
	r.register(scalar{name: name, help: help, label: label, kind: KindGauge, read: read})
}

func (r *Registry) register(s scalar) {
	r.mu.Lock()
	r.scalars = append(r.scalars, s)
	r.mu.Unlock()
}

// HistFunc registers a latency histogram bridge. fill is called with a
// zeroed stats.Hist on every snapshot.
func (r *Registry) HistFunc(name, help, label string, fill func(dst *stats.Hist)) {
	r.mu.Lock()
	r.hists = append(r.hists, histogram{name: name, help: help, label: label, fill: fill})
	r.mu.Unlock()
}

// AttachSink ties a hot-object sketch to the registry so snapshots
// carry its top-K report and migration-decision counts.
func (r *Registry) AttachSink(s *Sink) {
	r.mu.Lock()
	r.sink = s
	r.mu.Unlock()
}

// Sample is one scalar value in a snapshot.
type Sample struct {
	Name  string
	Help  string
	Label string
	Kind  Kind
	Value int64
}

// HistSample is one histogram in a snapshot: raw log2 buckets, to be
// rendered as cumulative Prometheus buckets by WriteProm.
type HistSample struct {
	Name    string
	Help    string
	Label   string
	Buckets [stats.HistBuckets]int64
}

// Snapshot is one node's metric state at one instant — the compact
// unit members ship to node 0 over the telemetry frame channel.
type Snapshot struct {
	Node    int
	Common  string
	Samples []Sample
	Hists   []HistSample
	TopK    []TopEntry
	// Migrated/Stayed count migration decisions (the policy's Decide, or
	// the protocol's pin veto and barrier reassignment) by
	// migration.Reason ordinal.
	Migrated []int64
	Stayed   []int64
}

// Snapshot reads every registered metric. It allocates (it is the
// cold path: shipping and exposition), but perturbs the measured code
// only by the read functions' own locking.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	snap := Snapshot{
		Node:    r.node,
		Common:  r.common,
		Samples: make([]Sample, 0, len(r.scalars)),
		Hists:   make([]HistSample, 0, len(r.hists)),
	}
	for _, s := range r.scalars {
		snap.Samples = append(snap.Samples, Sample{
			Name: s.name, Help: s.help, Label: s.label, Kind: s.kind, Value: s.read(),
		})
	}
	for _, h := range r.hists {
		var tmp stats.Hist
		h.fill(&tmp)
		hs := HistSample{Name: h.name, Help: h.help, Label: h.label}
		for b, c := range tmp.Bucket {
			hs.Buckets[b] = c
		}
		snap.Hists = append(snap.Hists, hs)
	}
	if r.sink != nil {
		snap.TopK = r.sink.Top(0)
		snap.Migrated, snap.Stayed = r.sink.Decisions()
	}
	return snap
}
