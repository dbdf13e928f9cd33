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
	"fmt"

	"repro/internal/core"
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
	// classifier reads (see Config.Trace): a flight.Log of trace.Kinds.
	Trace = flight.Log
	// TraceProfile is one object's classified access pattern.
	TraceProfile = trace.Profile
	// Observer is an event subscriber (in practice the coherence oracle's
	// log, a flight.Log of oracle.Kinds: the thread-side events and the
	// managers' BarrierRelease/LockGrant); identical on both engines. A subscriber must not mutate cluster state.
	// On the live engine nodes call Record concurrently: a subscriber
	// synchronizes itself, as flight.Log does.
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
// Zero values mean "paper defaults": AT policy, forwarding-pointer
// locator, Fast-Ethernet-class network, piggybacking on.
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
	// Lambda is λ of Eq. (2); 0 means the paper's 1.
	Lambda float64
	// TInit is the initial threshold; 0 means the paper's 1.
	TInit float64
	// NoPiggyback disables the §5.2 diff-piggybacking optimization.
	NoPiggyback bool
	// DebugWire round-trips every message through the binary codec
	// (on in tests, off in large sweeps).
	DebugWire bool
	// Trace, when non-nil, records the whole run's migration-relevant
	// protocol events for access-pattern analysis (see NewTrace,
	// AnalyzeTrace, TraceReport). Works on both engines: it is one more
	// subscriber of the events the flight recorder keeps.
	Trace *Trace
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
	// Observer, when non-nil, subscribes to the run's events (the
	// coherence oracle's recorder) on either engine.
	Observer Observer
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
	// that reaches the peer processes.
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
	// exchange can gather the ring. Live engine only.
	FlightLocal *flight.Recorder
	// Telemetry, when non-nil, is a hot-object sink subscribed to every
	// node's access and migration-decision events: a space-saving top-K
	// sketch of per-object accesses plus migration-decision counts by
	// reason. Works on both engines; pure observation, so sim digests
	// are unchanged by attaching it.
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
	sp      *proto.Space
	run     func([]Worker) (Metrics, error)
	cfg     Config
	polName string
	// initial holds the pre-run home-copy contents, snapshotted at Run
	// when an Observer is attached, so the oracle can be fed the real
	// initial values (InitialWord) instead of assuming zeros.
	initial [][]uint64
	// final and finalErr are the engine's end state, once the run returned.
	final    *proto.EndState
	finalErr error
}

// New builds a cluster. It panics on invalid configuration — a config is
// developer input, not runtime data.
func New(cfg Config) *Cluster {
	if cfg.Nodes <= 0 {
		panic("dsm: Config.Nodes must be positive")
	}
	netName := cfg.Network
	if netName == "" {
		netName = "fastethernet"
	}
	net, err := hockney.Parse(netName)
	if err != nil {
		panic("dsm: " + err.Error())
	}
	params := core.DefaultParams(net.Alpha)
	if cfg.Lambda != 0 {
		params.Lambda = cfg.Lambda
	}
	if cfg.TInit != 0 {
		params.TInit = cfg.TInit
	}
	polName := cfg.Policy
	if polName == "" {
		polName = "AT"
	}
	pol, err := migration.Parse(polName, params)
	if err != nil {
		panic("dsm: " + err.Error())
	}
	locName := cfg.Locator
	if locName == "" {
		locName = "fwdptr"
	}
	loc, err := locator.Parse(locName)
	if err != nil {
		panic("dsm: " + err.Error())
	}
	// Fields that mean something on the live engine only, or only
	// together: reject them before an engine is built.
	switch {
	case cfg.Engine != "live" && (cfg.Transport != nil || cfg.LocalNode != nil || cfg.FlightLocal != nil || cfg.Metrics != nil):
		panic("dsm: Transport, LocalNode, FlightLocal and Metrics require Engine \"live\"")
	case cfg.LocalNode != nil && (*cfg.LocalNode < 0 || int(*cfg.LocalNode) >= cfg.Nodes):
		panic(fmt.Sprintf("dsm: LocalNode %d outside cluster of %d", *cfg.LocalNode, cfg.Nodes))
	case cfg.LocalNode != nil && cfg.Transport == nil && cfg.Nodes > 1:
		// The other nodes run in peer processes; without a transport that
		// reaches them the first barrier would wait forever.
		panic("dsm: LocalNode requires a Transport that reaches the peer processes")
	}
	c := &Cluster{cfg: cfg, polName: pol.Name()}
	// The protocol selection, parsed once; either engine takes it as is.
	sh := proto.Shared{
		Nodes:        cfg.Nodes,
		Policy:       pol,
		Locator:      loc,
		Params:       params,
		Piggyback:    !cfg.NoPiggyback,
		PathCompress: cfg.PathCompress,
	}
	switch cfg.Engine {
	case "", "sim":
		e := gos.New(gos.Config{
			Shared:    sh,
			Net:       net,
			DebugWire: cfg.DebugWire,
			FlightCap: cfg.FlightCap,
		})
		c.sp, c.run = e.Space, e.Run
	case "live":
		e := live.New(live.Config{
			Shared:      sh,
			Transport:   cfg.Transport,
			LocalNode:   cfg.LocalNode,
			FlightCap:   cfg.FlightCap,
			FlightLocal: cfg.FlightLocal,
			Metrics:     cfg.Metrics,
		})
		c.sp, c.run = e.Space, e.Run
	default:
		panic(fmt.Sprintf("dsm: unknown engine %q (want \"sim\" or \"live\")", cfg.Engine))
	}
	// The one way in for observers, after the engine's own flight rings.
	if cfg.Telemetry != nil {
		c.sp.Subscribe(cfg.Telemetry)
	}
	c.sp.Subscribe(cfg.Observer)
	if cfg.Trace != nil {
		c.sp.Subscribe(cfg.Trace)
	}
	return c
}

// Nodes reports the cluster size.
func (c *Cluster) Nodes() int { return c.cfg.Nodes }

// PolicyName reports the active migration policy.
func (c *Cluster) PolicyName() string { return c.polName }

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
// (pre-existing input data).
func (c *Cluster) Init(obj ObjectID, fn func(words []uint64)) { c.sp.InitObject(obj, fn) }

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
	for i := 0; i < threads; i++ {
		ws = append(ws, Worker{
			Node: NodeID(i % c.Nodes()),
			Name: fmt.Sprintf("t%d", i),
			Fn:   fn,
		})
	}
	return c.RunWorkers(ws)
}

// RunWorkers executes explicitly placed workers (e.g. the synthetic
// benchmark's "threads on all nodes other than the start node", §5.2).
func (c *Cluster) RunWorkers(ws []Worker) (Metrics, error) {
	if c.cfg.Observer != nil && c.initial == nil {
		// Snapshot the pre-run memory so the oracle can check reads of
		// never-written words against the true initial values.
		end := c.mustEnd()
		c.initial = make([][]uint64, len(end.Data))
		for obj, data := range end.Data {
			c.initial[obj] = append([]uint64(nil), data...)
		}
	}
	m, err := c.run(ws)
	c.final, c.finalErr = c.sp.EndState()
	return m, err
}

// InitialWord reports the pre-run value of one word, recorded at Run
// time when an Observer is attached — the oracle.InitFn for this run.
func (c *Cluster) InitialWord(obj ObjectID, word int) uint64 {
	return c.initial[obj][word]
}

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

// NewTrace returns an empty protocol-event trace to attach to
// Config.Trace.
func NewTrace() *Trace { return flight.NewLog(trace.Kinds, nil) }

// AnalyzeTrace classifies every traced object's access pattern
// (single-writer lasting/transient, multiple-writer, read-mostly).
func AnalyzeTrace(t *Trace) []TraceProfile { return trace.Analyze(t.Events) }

// TraceReport renders the classification as a table.
func TraceReport(profiles []TraceProfile) string { return trace.Report(profiles) }
