// Package apps contains the multi-threaded DSM applications the paper
// evaluates (§5.1): ASP (all-pairs shortest paths by parallel Floyd),
// SOR (red-black successive over-relaxation), Nbody (Barnes–Hut) and TSP
// (parallel branch and bound), plus the synthetic single-writer benchmark
// of §5.2 (Fig. 4) and, as a sixth application, any program
// internal/scenario generates from a seed (RunScenario). Every application
// validates its shared-memory result against a sequential reference — its
// own, or the generated program's pure-Go model — so each run doubles as a
// correctness check of the coherence protocol.
//
// The checked run is defined here once — Options.cluster attaches the
// oracle, finish merges the flight rings, checks invariants and oracle and
// fingerprints the memory — for every sweep and gate of internal/bench,
// dsmrun and each dsmnode member, which reach it through Run or a Run*.
package apps

import (
	"flag"
	"fmt"

	dsm "repro"

	"repro/internal/flight"
	"repro/internal/oracle"
	"repro/internal/prng"
)

// Options configures an application run: the cluster configuration
// (dsm.Config, embedded — its Nodes, Policy, Locator, Lambda, TInit,
// Network, NoPiggyback, PathCompress, Engine, DebugWire, Trace,
// FlightCap, Telemetry and Metrics are set here under their own names and
// reach dsm.New as they are) plus what only the apps layer knows: thread
// count, input seed, the post-run gates and the multi-process member.
// Config's Observer, LocalNode and FlightLocal are not the caller's to
// set: cluster derives them from Oracle and Multi, as it does Transport
// under Multi (without it a caller may wrap the in-process transport, as
// the chaos sweep does with the fault injector).
type Options struct {
	dsm.Config
	// Threads is the worker count; 0 means one per node (the paper's
	// default: "the number of threads created is the same as the number
	// of cluster nodes").
	Threads int
	// Seed perturbs the application's generated input (graph, grid,
	// bodies, distances) for multi-trial sweeps. Zero selects the
	// canonical paper input, so all existing golden runs are Seed 0.
	// The synthetic benchmark has no generated input and ignores it; a
	// scenario is generated from it whole (scenario.Generate).
	Seed uint64
	// Check enables the post-run correctness gate: protocol invariants
	// are verified (a violation fails the run) and Result.Digest carries
	// the final shared-memory fingerprint for cross-policy comparison.
	Check bool
	// Oracle additionally records every scalar access and lock/barrier
	// event and replays the run through the LRC coherence oracle
	// (internal/oracle) after it completes; any violation fails the run.
	// Bulk view accesses bypass the hooks, so the oracle sees an app's
	// scalar traffic only — still enough to catch mis-ordered
	// synchronization on either engine.
	Oracle bool
	// Multi, when non-nil, runs this process as one member of a
	// multi-process cluster (cmd/dsmnode): only the member's local
	// node's workers execute here, frames cross the member's transport,
	// and the post-run gates — oracle, digest, metrics — are evaluated
	// distributively through the member's control plane instead of
	// locally. Requires Engine "live". The flight recorder then comes
	// from the member (see cluster.Config.FlightCap) and FlightCap is
	// ignored.
	Multi Member
	// OnCluster, when non-nil, is called with the built cluster just
	// before the run starts — the hook cmd binaries use to point a
	// debug listener (flight rings, metric reads) at the engine while
	// it is running.
	OnCluster func(*dsm.Cluster)
}

// Register declares the protocol-selection flags on fs, bound to o:
// -policy, -locator, -lambda, -tinit, -nopiggyback, -threads, -seed and
// -check (which sets Check; the binaries turn the oracle on with it). The help
// texts are dsmrun's; a binary for which they read differently replaces
// them (flag.Lookup(name).Usage).
func (o *Options) Register(fs *flag.FlagSet) {
	fs.StringVar(&o.Policy, "policy", "AT", "migration policy: AT, FT<k>, NoHM, JUMP, Jackal[k], Jiajia")
	fs.StringVar(&o.Locator, "locator", "fwdptr", "home locator: fwdptr, manager, broadcast")
	fs.Float64Var(&o.Lambda, "lambda", 0, "feedback coefficient λ (0 = paper's 1)")
	fs.Float64Var(&o.TInit, "tinit", 0, "initial threshold (0 = paper's 1)")
	fs.BoolVar(&o.NoPiggyback, "nopiggyback", false, "disable diff piggybacking on sync messages")
	fs.IntVar(&o.Threads, "threads", 0, "threads (0 = one per node)")
	fs.Uint64Var(&o.Seed, "seed", 0, "input seed: perturbs the generated input (0 = canonical paper input); the program of -app scenario")
	fs.BoolVar(&o.Check, "check", false, "post-run gate: protocol invariants, memory digest, and the LRC coherence oracle")
}

// Member is one process's handle on a multi-process cluster, as the
// apps layer needs it: it is the live engine's transport, names the
// node whose workers run here, supplies the observer that records
// oracle events with cluster-comparable timestamps, and finalizes a run
// distributively. internal/live/cluster implements it; an interface
// here keeps the dependency one-way (the cluster layer imports apps for
// Result, not vice versa).
type Member interface {
	dsm.Transport
	// LocalNode is the node this process executes.
	LocalNode() dsm.NodeID
	// Observer returns the member's oracle recorder for a run of
	// `threads` global threads (Options.Oracle set). The recorded
	// events carry hybrid-logical-clock stamps so node 0 can merge the
	// per-process logs into one LRC-checkable order.
	Observer(threads int) dsm.Observer
	// FinishApp completes the run cluster-wide: gathers every
	// process's status, metrics and (when enabled) oracle log to node
	// 0, which checks the merged log, merges metrics and broadcasts the
	// verdict. Under check res.Digest becomes the digest of the memory
	// node 0 assembled — the one digest there is; members hold it, they
	// do not recompute it. On node 0, res is updated to the merged
	// cluster view. A non-nil error means the cluster-wide run failed —
	// on every node.
	FinishApp(c *dsm.Cluster, res *Result, check, oracle bool) error
	// FlightRecorder is the member's ring (nil: none), which the local
	// node records into; FlightTimeline every member's merged, on node 0
	// after FinishApp.
	FlightRecorder() *flight.Recorder
	FlightTimeline() []flight.Event
}

// mixSeed combines an app's canonical input seed with a run's trial
// seed. Trial seed 0 leaves the canonical input untouched.
func mixSeed(canonical, seed uint64) uint64 {
	if seed == 0 {
		return canonical
	}
	return canonical ^ (seed * 0x9E3779B97F4A7C15)
}

func (o Options) threads() int {
	if o.Threads > 0 {
		return o.Threads
	}
	return o.Nodes
}

// cluster builds the configured DSM instance; threads sizes the oracle
// recorder (thread ids must be dense in [0, threads)).
func (o Options) cluster(threads int) (*dsm.Cluster, *oracle.Recorder) {
	var rec *oracle.Recorder
	cfg := o.Config
	if o.Multi != nil {
		cfg.Transport = o.Multi
		ln := o.Multi.LocalNode()
		cfg.LocalNode = &ln
		if o.Oracle {
			cfg.Observer = o.Multi.Observer(threads)
		}
		// A member carrying its own flight recorder (cluster.Config.
		// FlightCap) records with the cluster's hybrid logical clock, so
		// its stamps merge correctly with every peer's; the local node
		// records into it, remote nodes record nothing here.
		cfg.FlightCap = 0
		cfg.FlightLocal = o.Multi.FlightRecorder()
	} else if o.Oracle {
		rec = oracle.NewRecorder(threads)
		cfg.Observer = rec
	}
	c := dsm.New(cfg)
	if o.OnCluster != nil {
		o.OnCluster(c)
	}
	return c, rec
}

// Result is the outcome of one application run.
type Result struct {
	App     string
	Metrics dsm.Metrics
	// Digest is the final shared-memory fingerprint, filled only when
	// Options.Check is set (zero otherwise).
	Digest uint64
	// OracleOps counts the events the LRC oracle validated, filled only
	// when Options.Oracle is set.
	OracleOps int
	// Flight is the merged HLC-ordered flight timeline, filled when
	// recording was enabled (Options.FlightCap single-process; the
	// cluster member's recorder multi-process, merged on node 0 only).
	Flight []flight.Event
}

// finish applies the post-run gates shared by every app. First validate
// compares the memory with the app's sequential reference, in the
// process that holds it: the only one, or node 0 of a cluster (whose
// failure reaches the members through AbortApp). Then, under
// Options.Check the protocol invariants must hold and the final memory
// is fingerprinted for policy-independence comparison by the sweep
// layer; under Options.Oracle the recorded event log must be LRC-legal.
func finish(c *dsm.Cluster, o Options, rec *oracle.Recorder, res Result, validate func() error) (Result, error) {
	if o.Multi == nil || o.Multi.LocalNode() == 0 {
		if err := validate(); err != nil {
			return Result{}, err
		}
	}
	if o.Multi != nil {
		// Multi-process run: the local process saw only its node's
		// share of the events and counters, so every gate runs through
		// the cluster member's control plane (merged oracle log and the
		// assembled memory's digest on node 0, metrics merge).
		if err := o.Multi.FinishApp(c, &res, o.Check, o.Oracle); err != nil {
			return Result{}, fmt.Errorf("%s: %w", res.App, err)
		}
		res.Flight = o.Multi.FlightTimeline()
		return res, nil
	}
	res.Flight = c.FlightEvents()
	if rec != nil {
		res.OracleOps = rec.Len()
		if viols := rec.Check(c.InitialWord); len(viols) > 0 {
			return Result{}, fmt.Errorf("%s: oracle: %d violation(s), first: %s",
				res.App, len(viols), viols[0])
		}
	}
	if !o.Check {
		return res, nil
	}
	if err := c.CheckInvariants(); err != nil {
		return Result{}, fmt.Errorf("%s: invariants: %w", res.App, err)
	}
	res.Digest = c.Digest()
	return res, nil
}

func (r Result) String() string {
	return fmt.Sprintf("%s: time=%v msgs=%d bytes=%d migr=%d",
		r.App, r.Metrics.ExecTime, r.Metrics.TotalMsgs(false),
		r.Metrics.TotalBytes(false), r.Metrics.Migrations)
}

// newRng seeds the repository's shared deterministic generator
// (internal/prng, the same xorshift64* stream the old in-package copy
// produced), so inputs are stable across Go releases and identical to
// every golden run generated before the unification.
func newRng(seed uint64) *prng.Rand { return prng.New(seed) }

// Per-operation compute costs calibrated so full-size runs land in the
// paper's hundreds-of-seconds regime on a 2 GHz P4 running a JIT-mode
// JVM with inlined access checks (Fig. 2's axes). Only time *shape*
// matters for the reproduction; message counts are exact protocol
// properties.
const (
	aspRelaxCost   = 500 * dsm.Nanosecond // one Floyd relaxation
	sorCellCost    = 500 * dsm.Nanosecond // one 5-point stencil update
	nbodyForceCost = 800 * dsm.Nanosecond // one body-tree interaction
	tspNodeCost    = 300 * dsm.Nanosecond // one branch-and-bound expansion
)
