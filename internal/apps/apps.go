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
// dsmrun and each dsmnode member, which reach it through Run or a Run*. A
// cluster member's Run (internal/live/cluster) wires its half of the run
// into the Options before and finishes it cluster-wide after.
package apps

import (
	"flag"
	"fmt"
	"slices"

	dsm "repro"

	"repro/internal/flight"
	"repro/internal/oracle"
	"repro/internal/prng"
)

// Options configures an application run: the cluster configuration
// (dsm.Config, embedded — set here under its own names, it reaches
// dsm.New as it is, with the oracle's log added to Observers under
// Check) plus what only the apps layer knows: thread count, input seed
// and the post-run gates. A cluster member's Run sets LocalNode,
// FlightLocal and Transport (elsewhere a caller may wrap the in-process
// transport, as the chaos sweep does with the fault injector). A
// LocalNode marks the run as one member's: the app's validation runs on
// node 0 only, and the cluster's size is the member's, never grown.
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
	// Check enables the post-run correctness gate: the run's every scalar
	// access and lock/barrier event is replayed through the LRC coherence
	// oracle (internal/oracle), protocol invariants are verified — a
	// violation of either fails the run — and Result.Digest carries the
	// final shared-memory fingerprint for cross-policy comparison. Bulk
	// view accesses bypass the oracle, which sees an app's scalar traffic
	// only: still enough to catch mis-ordered synchronization on either
	// engine.
	Check bool
	// OnCluster, when non-nil, is called with the built cluster just
	// before the run starts — the hook cmd binaries use to point a
	// debug listener (flight rings, metric reads) at the engine while
	// it is running.
	OnCluster func(*dsm.Cluster)
}

// Register declares the protocol-selection flags on fs, bound to o:
// -policy, -locator, -lambda, -tinit, -nopiggyback, -threads, -seed and
// -check (the one gate, Check). The help texts are dsmrun's; a binary
// for which they read differently replaces them (flag.Lookup(name).Usage).
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

// cluster builds the configured DSM instance and, under Check on a
// single process, the oracle's log (a member's Run brings its own). A
// configuration dsm.New would reject is the run's error.
func (o Options) cluster() (*dsm.Cluster, *flight.Log, error) {
	var rec *flight.Log
	cfg := o.Config
	if o.Check && o.LocalNode == nil {
		rec = flight.NewLog(oracle.Kinds, nil)
		cfg.Observers = append(slices.Clip(cfg.Observers), rec)
	}
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	c := dsm.New(cfg)
	if o.OnCluster != nil {
		o.OnCluster(c)
	}
	return c, rec, nil
}

// Result is the outcome of one application run.
type Result struct {
	App     string
	Metrics dsm.Metrics
	// Digest is the final shared-memory fingerprint, filled only when
	// Options.Check is set (zero otherwise).
	Digest uint64
	// OracleOps counts the events the LRC oracle validated, filled only
	// when Options.Check is set.
	OracleOps int
	// Flight is the merged HLC-ordered flight timeline, filled when
	// recording was enabled (Options.FlightCap single-process; the
	// cluster member's recorder multi-process, merged on node 0 only).
	Flight []flight.Event
}

// finish applies the post-run gates shared by every app. First validate
// compares the memory with the app's sequential reference, in the
// process that holds it: the only one, or node 0 of a cluster (whose
// failure reaches the members through their Run). Then, under
// Options.Check the recorded event log must be LRC-legal, the protocol
// invariants must hold and the final memory is fingerprinted for
// policy-independence comparison by the sweep layer.
// On a cluster member the invariants and the digest are those of the end
// state the cluster assembled, and the oracle log is the member's, which
// its Run hands to node 0.
func finish(c *dsm.Cluster, o Options, rec *flight.Log, res Result, validate func() error) (Result, error) {
	if o.LocalNode == nil || *o.LocalNode == 0 {
		if err := validate(); err != nil {
			return Result{}, err
		}
	}
	res.Flight = c.FlightEvents()
	if rec != nil {
		res.OracleOps = len(rec.Events)
		if viols := oracle.Check(c.Threads(), rec.Events, c.InitialWord); len(viols) > 0 {
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
