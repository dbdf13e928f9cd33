// Package dsm is a home-based software distributed shared memory (DSM)
// system with adaptive home migration, reproducing Fang, Wang, Zhu & Lau,
// "A Novel Adaptive Home Migration Protocol in Home-based DSM" (IEEE
// CLUSTER 2004).
//
// The library provides the Global Object Space (GOS) of the paper: an
// object-granularity, home-based implementation of lazy release
// consistency with TreadMarks-style twin/diff multiple-writer support,
// running on a deterministic simulated cluster whose interconnect follows
// Hockney's communication model. Its centerpiece is the per-object
// adaptive home-migration threshold of the paper's §4:
//
//	T_i = max(T_{i-1} + λ·(R_i − α·E_i), T_init)
//
// which migrates an object's home to a lasting single writer while
// suppressing migration under transient write patterns.
//
// # Quick start
//
//	c := dsm.New(dsm.Config{Nodes: 4, Policy: "AT"})
//	counter := c.NewObject("counter", 1, 0)
//	lock := c.NewLock(0)
//	m, err := c.Run(4, func(t dsm.Thread) {
//	    for i := 0; i < 100; i++ {
//	        t.Acquire(lock)
//	        t.Write(counter, 0, t.Read(counter, 0)+1)
//	        t.Release(lock)
//	    }
//	})
//
// Metrics report execution time (virtual), message counts by category,
// network traffic, migrations and redirections — the quantities the
// paper's figures plot.
package dsm

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/flight"
	"repro/internal/gos"
	"repro/internal/hockney"
	"repro/internal/live"
	"repro/internal/live/transport"
	"repro/internal/locator"
	"repro/internal/memory"
	"repro/internal/migration"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Re-exported fundamental types. These are aliases so values flow freely
// between the facade and the internal engine.
type (
	// NodeID identifies a cluster node.
	NodeID = memory.NodeID
	// ObjectID identifies a shared object.
	ObjectID = memory.ObjectID
	// Thread is an application thread; all shared accesses and
	// synchronization go through it. It is an interface implemented by
	// both execution engines (sim and live).
	Thread = proto.Thread
	// Lock names a distributed lock.
	Lock = proto.LockID
	// Barrier names a distributed barrier.
	Barrier = proto.BarrierID
	// Metrics are the per-run statistics.
	Metrics = stats.Metrics
	// Time is virtual time in nanoseconds.
	Time = sim.Time
	// Worker pins a thread to a node.
	Worker = proto.Worker
	// Trace is an ordered log of the protocol events the access-pattern
	// classifier reads (NewTrace, one of Config.Observers): a flight.Log
	// of trace.Kinds.
	Trace = flight.Log
	// TraceProfile is one object's classified access pattern.
	TraceProfile = trace.Profile
	// Observer is an event subscriber (see Config.Observers): the
	// coherence oracle's checker (oracle.Checker), a Trace, a telemetry
	// sink.
	// Identical on both engines; a subscriber must not mutate cluster
	// state. On the live engine nodes call Record concurrently: a
	// subscriber synchronizes itself, as flight.Log does.
	Observer = flight.Subscriber
	// Transport carries encoded protocol frames between live-engine
	// nodes and pushes them to the receiving node (see Config.Transport).
	Transport = transport.Pusher
)

// Convenient time units (virtual time).
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Config selects the cluster size, protocol and network for a run.
// Zero values mean the paper's selection, proto.DefaultShared (AT at
// λ = T_init = 1, forwarding pointers, piggybacking on), on a
// Fast-Ethernet-class network: New applies only the fields that are set
// over it, and Validate reports what New would reject.
type Config struct {
	// Nodes is the cluster size (required).
	Nodes int
	// Policy picks the migration protocol: "AT" (adaptive, default),
	// "FT<k>" (fixed threshold k), "NoHM"/"NM", "JUMP", "Jackal[<k>]",
	// "Jiajia".
	Policy string
	// Locator picks the home-location mechanism: "fwdptr" (default),
	// "manager", "broadcast" (§3.2).
	Locator string
	// Network: "fastethernet" (default) or "gigabit".
	Network string
	// Lambda is λ of Eq. (2); 0 means the paper's 1. It must be finite
	// and non-negative.
	Lambda float64
	// TInit is the initial threshold; 0 means the paper's 1. It must be
	// finite.
	TInit float64
	// NoPiggyback disables the §5.2 diff-piggybacking optimization.
	NoPiggyback bool
	// DebugWire round-trips every message through the binary codec
	// (on in tests, off in large sweeps).
	DebugWire bool
	// PathCompress enables forwarding-chain compression (extension
	// beyond the paper): redirected requesters notify their stale entry
	// points of the true home.
	PathCompress bool
	// Engine selects the execution engine: "sim" (default) runs on the
	// deterministic virtual-time kernel with Hockney message costs —
	// the engine behind the paper's figures; "live" runs the same
	// protocol on real goroutines behind a pluggable transport
	// (internal/live), with wall-clock metrics and real scheduler/
	// network nondeterminism. Network and the cost model apply only to
	// "sim"; a live run reports Wall and LiveMsgs instead of virtual
	// ExecTime.
	Engine string
	// Observers subscribe, in order, to the run's events on either engine,
	// after the engine's flight rings: the oracle's checker (its initial
	// values are the program's Init calls, see InitialWord), a Trace (NewTrace,
	// AnalyzeTrace), a telemetry sink. A caller adds to the list
	// (append(slices.Clip(cfg.Observers), …): configs are shared across runs).
	Observers []Observer
	// Transport injects a custom live-engine transport — e.g. a
	// multi-process cluster member carrying frames over TCP
	// (internal/live/cluster). nil selects the in-process chanloop
	// backend. Live engine only.
	Transport Transport
	// LocalNode, when non-nil, makes this process the member of a
	// multi-process cluster (cmd/dsmnode) that owns that node and nothing
	// else. Every member declares the identical layout (guarded by the
	// bootstrap config digest) and passes the full worker list to Run, so
	// thread ids, slots and routing agree everywhere; from Run on the
	// engine keeps only this node's state, sink and threads. Afterwards
	// node 0 holds the assembled memory; on another member HomeOf and
	// Digest answer, Data only for objects it homes (else it panics,
	// naming the owner). Live engine only, and it requires a Transport
	// that reaches the peer processes. The member's Run sets it, with
	// Transport and FlightLocal (internal/live/cluster).
	LocalNode *NodeID
	// FlightCap, when positive, attaches a fixed-capacity flight
	// recorder to every node (internal/flight): HLC-stamped protocol
	// events — frame traffic, migration decisions with their reasons,
	// lock grants, barrier episodes — readable after the run through
	// FlightEvents. Works on both engines; the sim engine stamps with
	// the virtual clock, so a seeded run's timeline is reproducible.
	FlightCap int
	// FlightLocal injects an externally owned recorder for the local
	// node — the multi-process mode, where the cluster member owns the
	// recorder so its HLC stamps observe remote frames and the finish
	// exchange can gather the ring; the member's Run sets it. Live engine
	// only.
	FlightLocal *flight.Recorder
	// Telemetry, when non-nil, is subscribed after Observers. It is the
	// frozen benchmark harness's way to attach its sink; everything else
	// lists the sink in Observers.
	Telemetry *telemetry.Sink
	// Metrics, when non-nil, receives the engine's live scrape metrics
	// (frame counters, protocol counters, merged latency histograms).
	// Live engine only — the sim engine's wall-free kernel has no
	// mid-run scrape surface.
	Metrics *telemetry.Registry
}

// Cluster is a configured DSM instance: declare shared state, then Run.
// It holds the engine New builds as its proto.Space and its Run.
type Cluster struct {
	sp  *proto.Space
	run func([]Worker) (Metrics, error)
	// inits are each object's Init calls in call order; initial holds
	// what InitialWord replayed them into, per object.
	inits   map[ObjectID][]func([]uint64)
	initial map[ObjectID][]uint64
	// threads is the worker count of the last Run.
	threads int
	// final and finalErr are the engine's end state, once the run returned.
	final    *proto.EndState
	finalErr error
}

// Validate reports the first thing in cfg that New would reject, as an
// error naming it: New panics with this same error.
func (cfg Config) Validate() error {
	_, _, err := cfg.resolve()
	return err
}

// resolve applies cfg over the paper's selection (proto.DefaultShared):
// only what cfg names replaces a default. It returns the selection
// either engine takes as is and the sim engine's network model.
func (cfg Config) resolve() (sh proto.Shared, net hockney.Model, err error) {
	if cfg.Nodes <= 0 {
		return sh, net, fmt.Errorf("dsm: Config.Nodes must be positive, got %d", cfg.Nodes)
	}
	if net, err = hockney.Parse(cmp.Or(cfg.Network, "fastethernet")); err != nil {
		return sh, net, fmt.Errorf("dsm: %w", err)
	}
	// A NaN or infinite λ or T_init never lets the threshold fire, and a
	// negative λ inverts Eq. (2)'s feedback: either would run another
	// policy under AT's name.
	switch {
	case math.IsNaN(cfg.Lambda) || math.IsInf(cfg.Lambda, 0) || cfg.Lambda < 0:
		return sh, net, fmt.Errorf("dsm: Config.Lambda must be finite and non-negative, got %v", cfg.Lambda)
	case math.IsNaN(cfg.TInit) || math.IsInf(cfg.TInit, 0):
		return sh, net, fmt.Errorf("dsm: Config.TInit must be finite, got %v", cfg.TInit)
	}
	sh = proto.DefaultShared(cfg.Nodes, net.Alpha)
	sh.Params.Lambda = cmp.Or(cfg.Lambda, sh.Params.Lambda)
	sh.Params.TInit = cmp.Or(cfg.TInit, sh.Params.TInit)
	if sh.Policy, err = migration.Parse(cmp.Or(cfg.Policy, sh.Policy.Name()), sh.Params); err != nil {
		return sh, net, fmt.Errorf("dsm: %w", err)
	}
	if cfg.Locator != "" {
		if sh.Locator, err = locator.Parse(cfg.Locator); err != nil {
			return sh, net, fmt.Errorf("dsm: %w", err)
		}
	}
	sh.Piggyback = !cfg.NoPiggyback
	sh.PathCompress = cfg.PathCompress
	// Fields that mean something on the live engine only, or only
	// together: reject them before an engine is built.
	switch {
	case cfg.Engine != "" && cfg.Engine != "sim" && cfg.Engine != "live":
		return sh, net, fmt.Errorf("dsm: unknown engine %q (want \"sim\" or \"live\")", cfg.Engine)
	case cfg.Engine != "live" && (cfg.Transport != nil || cfg.LocalNode != nil || cfg.FlightLocal != nil || cfg.Metrics != nil):
		return sh, net, errors.New("dsm: Transport, LocalNode, FlightLocal and Metrics require Engine \"live\"")
	case cfg.LocalNode != nil && (*cfg.LocalNode < 0 || int(*cfg.LocalNode) >= cfg.Nodes):
		return sh, net, fmt.Errorf("dsm: LocalNode %d outside cluster of %d", *cfg.LocalNode, cfg.Nodes)
	case cfg.LocalNode != nil && cfg.Transport == nil && cfg.Nodes > 1:
		// The other nodes run in peer processes; without a transport that
		// reaches them the first barrier would wait forever.
		return sh, net, errors.New("dsm: LocalNode requires a Transport that reaches the peer processes")
	}
	return sh, net, nil
}

// New builds a cluster. It panics with Validate's error on an invalid
// configuration — a config is developer input, not runtime data.
func New(cfg Config) *Cluster {
	sh, net, err := cfg.resolve()
	if err != nil {
		panic(err)
	}
	c := &Cluster{inits: map[ObjectID][]func([]uint64){}, initial: map[ObjectID][]uint64{}}
	if cfg.Engine == "live" {
		e := live.New(live.Config{
			Shared:      sh,
			Transport:   cfg.Transport,
			LocalNode:   cfg.LocalNode,
			FlightCap:   cfg.FlightCap,
			FlightLocal: cfg.FlightLocal,
			Metrics:     cfg.Metrics,
		})
		c.sp, c.run = e.Space, e.Run
	} else {
		e := gos.New(gos.Config{
			Shared:    sh,
			Net:       net,
			DebugWire: cfg.DebugWire,
			FlightCap: cfg.FlightCap,
		})
		c.sp, c.run = e.Space, e.Run
	}
	// The one way in for observers, after the engine's own flight rings.
	for _, o := range cfg.Observers {
		c.sp.Subscribe(o)
	}
	if cfg.Telemetry != nil {
		c.sp.Subscribe(cfg.Telemetry)
	}
	return c
}

// Nodes reports the cluster size.
func (c *Cluster) Nodes() int { return c.sp.S.Nodes }

// PolicyName reports the active migration policy.
func (c *Cluster) PolicyName() string { return c.sp.S.Policy.Name() }

// NewObject declares one shared object of words 64-bit words, homed at
// (i.e. "created by", §5) node home, and returns its id.
func (c *Cluster) NewObject(name string, words int, home NodeID) ObjectID {
	_ = name // names are documentation; ids are dense ints
	return c.sp.AddObject(words, home)
}

// NewLock declares a distributed lock managed by node home.
func (c *Cluster) NewLock(home NodeID) Lock { return c.sp.AddLock(home) }

// NewBarrier declares a barrier of parties threads managed by node home.
func (c *Cluster) NewBarrier(home NodeID, parties int) Barrier {
	return c.sp.AddBarrier(home, parties)
}

// Init seeds an object's home copy before the run at no simulated cost
// (pre-existing input data); calls compose in order. InitialWord calls fn
// again during or after Run, so fn must read only data that nothing
// mutates.
func (c *Cluster) Init(obj ObjectID, fn func(words []uint64)) {
	c.sp.InitObject(obj, fn)
	c.inits[obj] = append(c.inits[obj], fn)
}

// end returns the memory as it stands and the first invariant it violates.
func (c *Cluster) end() (*proto.EndState, error) {
	if c.final != nil {
		return c.final, c.finalErr
	}
	return c.sp.EndState()
}

// mustEnd is end for readers with no error to return; only an aborted
// cluster member has no state.
func (c *Cluster) mustEnd() *proto.EndState {
	end, err := c.end()
	if end == nil {
		panic(fmt.Sprintf("dsm: no end state to inspect: %v", err))
	}
	return end
}

// HomeOf reports an object's current home (useful after a run, to see
// where migration placed it).
func (c *Cluster) HomeOf(obj ObjectID) NodeID { return c.mustEnd().Homes[obj] }

// Data returns the authoritative (home-copy) contents of obj after a
// run. On a multi-process cluster member see Config.LocalNode.
func (c *Cluster) Data(obj ObjectID) []uint64 { return c.mustEnd().ObjectData(obj) }

// Run executes fn on `threads` threads placed round-robin over the nodes
// (thread i on node i mod Nodes — the paper runs one thread per node) and
// returns the metrics.
func (c *Cluster) Run(threads int, fn func(Thread)) (Metrics, error) {
	var ws []Worker
	for i := range threads {
		ws = append(ws, Worker{Node: NodeID(i % c.Nodes()), Name: fmt.Sprintf("t%d", i), Fn: fn})
	}
	return c.RunWorkers(ws)
}

// RunWorkers executes explicitly placed workers (e.g. the synthetic
// benchmark's "threads on all nodes other than the start node", §5.2).
func (c *Cluster) RunWorkers(ws []Worker) (Metrics, error) {
	c.threads = len(ws)
	m, err := c.run(ws)
	c.final, c.finalErr = c.sp.EndState()
	return m, err
}

// InitialWord reports one word's pre-run value, the run's oracle.InitFn:
// on the first ask about obj, during or after Run, it replays obj's Init
// calls, in order, into zeroed words, and keeps them. Call it one call at
// a time: a checked run's oracle asks it during Run, under the checker's
// lock, and a cluster's node 0 after.
func (c *Cluster) InitialWord(obj ObjectID, word int) uint64 {
	w, ok := c.initial[obj]
	if !ok {
		w = make([]uint64, c.sp.S.ObjWords[obj])
		for _, fn := range c.inits[obj] {
			fn(w)
		}
		c.initial[obj] = w
	}
	return w[word]
}

// ObjectWords reports each declared object's size in words, by ObjectID.
func (c *Cluster) ObjectWords() []int { return slices.Clone(c.sp.S.ObjWords) }

// Threads reports the worker count of the last Run: thread ids are dense
// in [0, Threads) — the oracle's thread count.
func (c *Cluster) Threads() int { return c.threads }

// CheckInvariants validates global protocol invariants after a run:
// exactly one home per object, terminating forwarding chains, no dirty
// cached copies or leaked twins, plausible copysets, a truthful manager
// table. Intended for tests, `dsmbench -check` sweeps and debugging.
func (c *Cluster) CheckInvariants() error {
	_, err := c.end()
	return err
}

// Digest fingerprints the final shared-memory contents (FNV-1a over
// every object's home copy in object order). For a deterministic
// program it must be identical under every migration policy and
// locator — migration changes cost, never results.
func (c *Cluster) Digest() uint64 { return c.mustEnd().Digest() }

// FlightEvents returns the merged (Wall, Logical)-ordered flight
// timeline of the run — every node's ring in one HLC-ordered log. Empty
// when recording was not enabled (Config.FlightCap/FlightLocal). Call
// after Run; see internal/flight for exporters (WriteText,
// WriteChromeTrace). internal/trace classifies the timeline as is.
func (c *Cluster) FlightEvents() []flight.Event { return c.sp.FlightEvents() }

// FlightRecorders returns the flight recorders in node order, one per
// recording node this process runs: empty when recording is off. Useful
// for dump-on-abort reporting (flight.DumpLastN).
func (c *Cluster) FlightRecorders() []*flight.Recorder { return c.sp.FlightRecorders() }

// NewTrace returns an empty protocol-event trace to list in
// Config.Observers.
func NewTrace() *Trace { return flight.NewLog(trace.Kinds, nil) }

// AnalyzeTrace classifies every traced object's access pattern
// (single-writer lasting/transient, multiple-writer, read-mostly).
func AnalyzeTrace(t *Trace) []TraceProfile { return trace.Analyze(t.Events) }

// TraceReport renders the classification as a table.
func TraceReport(profiles []TraceProfile) string { return trace.Report(profiles) }
