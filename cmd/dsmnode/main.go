//dsm:wallclock daemon bootstrap deadlines and exit-path grace sleeps run on real time

// dsmnode runs one node of a multi-process DSM cluster: N processes,
// each started with the same application flags and a distinct -id, find
// each other over TCP (one connection per node pair), barrier on start,
// execute the registered application on the live engine with this
// node's threads, and agree on the outcome — merged metrics, memory
// digest and (under -check) distributed invariants plus the merged LRC
// coherence oracle, printed by node 0.
//
// Usage (a 4-node localhost cluster; run each line in its own shell or
// background the first three):
//
//	dsmnode -id 0 -peers 127.0.0.1:7700,127.0.0.1:7701,127.0.0.1:7702,127.0.0.1:7703 -app sor -n 64 -iters 4 -check
//	dsmnode -id 1 -peers ...same list... -app sor -n 64 -iters 4 -check
//	dsmnode -id 2 -peers ...same list... -app sor -n 64 -iters 4 -check
//	dsmnode -id 3 -peers ...same list... -app sor -n 64 -iters 4 -check
//
// Every member must be started with identical application flags — the
// bootstrap handshake exchanges a digest of the configuration and
// rejects mismatches, because each process builds its own replica of
// the cluster layout (objects, locks, barriers, thread placement) and
// those replicas must be identical for the protocol to route. The digest
// is generated, not listed: it hashes the cluster size and name=value of
// every flag the shared blocks apps.Spec.Register (application, size) and
// apps.Options.Register (protocol selection, -threads, -seed, -check)
// declare. Observability, failure-injection and per-process flags stay
// outside it.
//
// The process exits 0 only when the whole cluster succeeded: an
// application-result mismatch, invariant violation or oracle violation
// on any node fails every node. The digest node 0 prints is that of the
// memory it assembled from every member's report — the members hold the
// same number, they do not recompute it. For a deterministic program it
// equals the digest of a single-process run of the same configuration
// (dsmrun -engine live -check, or -engine sim), which is the cross-engine
// equivalence gate extended to its third engine configuration; -app
// scenario -seed S extends the random-program gate the same way.
//
// Failures exit with a distinct code per failure domain, so a harness
// can tell a misconfigured member from a crashed peer:
//
//	0  cluster-wide success
//	1  other failure (bad flags, application error)
//	3  configuration mismatch rejected at the bootstrap handshake
//	4  bootstrap timed out (a peer never became reachable or silent)
//	5  runtime abort: a peer died mid-run, went silent past the
//	   heartbeat bound, or the -deadline watchdog fired; stderr names
//	   the peer or connection that triggered it
//	6  verification failed: merged-oracle violation, invariant
//	   failure, or a member's application error (a result that differs
//	   from the sequential reference, a scenario on the wrong cluster size)
//	7  chaos self-kill (-chaos-kill-after): this process killed itself
//	   deliberately so the survivors' abort path could be tested
//
// Observability: -flight N attaches a flight recorder of N events to
// this member (HLC-stamped frame traffic, migration decisions with
// reasons, lock/barrier events, heartbeats, faults); node 0 gathers
// every member's ring at finish or abort and can export the merged
// cluster timeline (-flight-text, -flight-trace for Perfetto). Any
// failure path dumps this process's trailing events to stderr. -json
// emits the merged run artifact machine-readably (node 0).
//
// Live telemetry is always on: every member carries a metric registry
// (frame and byte counters per peer, queue depths and peaks, heartbeat
// liveness, protocol counters and latency histograms from the engine,
// plus a space-saving hot-object sketch) and ships a compact snapshot
// to node 0 every -telemetry-interval over the transport's telemetry
// frame channel. -obs-addr serves the debug listener: /debug/pprof,
// /flight (this node's ring as text, mid-run), and /metrics as
// Prometheus text exposition — on node 0 the cluster-aggregated view
// with one labeled series set per member. -metrics-json writes the
// sampled metric time-series at end of run.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/flight"
	"repro/internal/live/cluster"
	"repro/internal/memory"
	"repro/internal/obshttp"
	"repro/internal/stats"
)

// Exit codes per failure domain (see package comment).
const (
	exitOK        = 0
	exitOther     = 1
	exitConfig    = 3
	exitBootstrap = 4
	exitAbort     = 5
	exitVerify    = 6
	exitChaosKill = 7
)

// exitCode maps an error to its failure domain's exit code via the
// cluster package's classification sentinels.
func exitCode(err error) int {
	switch {
	case err == nil:
		return exitOK
	case errors.Is(err, cluster.ErrConfigMismatch):
		return exitConfig
	case errors.Is(err, cluster.ErrBootstrapTimeout):
		return exitBootstrap
	case errors.Is(err, cluster.ErrPeerDeath):
		return exitAbort
	case errors.Is(err, cluster.ErrVerification):
		return exitVerify
	default:
		return exitOther
	}
}

func main() {
	// -workers 0 means nodes-1 here (resolved below, once the cluster
	// size is known).
	spec := apps.Spec{App: "sor", N: 64, Iters: 4, Cities: 10, Rep: 8, Updates: 2048}
	var o apps.Options
	spec.Register(flag.CommandLine)
	o.Register(flag.CommandLine)
	// Every flag registered so far decides what the cluster computes, so
	// the handshake digest covers them all (canon, below): a flag added to
	// a shared block is compared with no edit here. What follows may
	// differ between members.
	var computed []string
	flag.VisitAll(func(f *flag.Flag) { computed = append(computed, f.Name) })
	flag.Lookup("workers").Usage = "synthetic: worker threads (0 = nodes-1, on nodes 1..workers)"
	flag.Lookup("threads").Usage = "total threads across the cluster (0 = one per node)"
	flag.Lookup("check").Usage = "cluster-wide gate: distributed invariants, merged LRC oracle, memory digest"
	// Observability flags are excluded from the config digest: they change
	// what a process records and reports, never what it computes, so
	// members may legitimately differ. The shared block words them for a
	// single process; here they are one member's, and node 0's exports.
	var obsFlags apps.ObsFlags
	obsFlags.Register(flag.CommandLine)
	flag.Lookup("flight").Usage = "flight recorder capacity in events for this member (0 = off)"
	flag.Lookup("flight-text").Usage = "node 0: write the merged cluster timeline as text to this file (\"-\" = stdout; needs -flight)"
	flag.Lookup("flight-trace").Usage = "node 0: write the merged cluster timeline as Chrome trace-event JSON to this file (\"-\" = stdout; needs -flight)"
	flag.Lookup("obs-addr").Usage = "serve the debug listener (/debug/pprof, /metrics, /flight) on this address"
	var (
		id      = flag.Int("id", -1, "this node's id (0..nodes-1; node 0 coordinates and prints the merged report)")
		peers   = flag.String("peers", "", "comma-separated host:port per node, index = node id (required)")
		nodes   = flag.Int("nodes", 0, "cluster size; 0 derives it from -peers (set it as a cross-check)")
		timeout = flag.Duration("join-timeout", 20*time.Second, "how long to wait for peers during bootstrap")
		verbose = flag.Bool("v", false, "log bootstrap progress")

		// Failure-injection and bounding flags. Excluded from the config
		// digest: they are deliberately per-process (a chaos harness kills
		// ONE member; a watchdog may differ per host).
		deadline  = flag.Duration("deadline", 0, "watchdog: exit nonzero if the whole run has not finished in this long (0 = none)")
		chaosKill = flag.Int64("chaos-kill-after", 0, "chaos: kill this process once it has seen this many engine data frames (0 = never)")

		// More observability, also outside the config digest.
		flightDump  = flag.Int("flight-dump", 16, "on any failure path, dump this process's last N flight events to stderr (needs -flight)")
		jsonOut     = flag.Bool("json", false, "node 0: emit the merged run artifact as JSON on stdout instead of the text report")
		telInterval = flag.Duration("telemetry-interval", cluster.DefaultTelemetryInterval, "sampler tick and snapshot-ship period for the live telemetry")
		metricsJSON = flag.String("metrics-json", "", "write the sampled metric time-series as JSON to this file at end of run (\"-\" = stdout)")
	)
	flag.Parse()

	addrs := strings.Split(*peers, ",")
	if *peers == "" || len(addrs) == 0 {
		fatal(fmt.Errorf("-peers is required (one host:port per node)"))
	}
	if *nodes != 0 && *nodes != len(addrs) {
		fatal(fmt.Errorf("-nodes %d disagrees with %d peer addresses", *nodes, len(addrs)))
	}
	nn := len(addrs)
	if *id < 0 || *id >= nn {
		fatal(fmt.Errorf("-id %d outside cluster of %d", *id, nn))
	}
	if spec.App == "synthetic" && spec.Workers == 0 {
		spec.Workers = nn - 1
	}

	// The configuration digest: every member must present the same one
	// at the handshake, since each process independently builds what
	// must be identical cluster replicas. Peer addresses are excluded —
	// hostname spellings may legitimately differ per process; the
	// pair-wise hello already validates ids and cluster size.
	canon := fmt.Sprintf("v2|nodes=%d", nn)
	for _, name := range computed {
		canon += fmt.Sprintf("|%s=%s", name, flag.Lookup(name).Value)
	}
	h := fnv.New64a()
	h.Write([]byte(canon))

	// member is assigned by Join below; the failure paths (OnFatal, the
	// deadline watchdog, chaos kill) may fire first, so every dump guards
	// against a nil member.
	var member *cluster.Member
	dumpFlight := func() {
		if member != nil && *flightDump > 0 {
			// A member without a ring has a nil one, which the dump skips.
			flight.DumpLastN(os.Stderr, []*flight.Recorder{member.FlightRecorder()}, *flightDump)
		}
	}

	cfg := cluster.Config{
		ID:          memory.NodeID(*id),
		Addrs:       addrs,
		Digest:      h.Sum64(),
		Check:       o.Check,
		DialTimeout: *timeout,
		FlightCap:   obsFlags.FlightCap,
		// Live telemetry is always on, independent of -obs-addr: every
		// member ships compact snapshots to node 0 so the coordinator's
		// /metrics is the cluster view even when only node 0 listens.
		TelemetryInterval: *telInterval,
		OnFatal: func(err error) {
			// The transport's error names the peer/connection that broke
			// (e.g. "read with node 2 failed: ...") — print it verbatim so
			// the operator knows which member to look at.
			fmt.Fprintf(os.Stderr, "dsmnode %d: cluster broken, aborting: %v\n", *id, err)
			dumpFlight()
			os.Exit(exitAbort)
		},
	}
	if *verbose {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "dsmnode: "+format+"\n", args...)
		}
	}
	if *deadline > 0 {
		time.AfterFunc(*deadline, func() {
			fmt.Fprintf(os.Stderr, "dsmnode %d: deadline %v exceeded with the run unfinished, aborting\n", *id, *deadline)
			dumpFlight()
			os.Exit(exitAbort)
		})
	}
	var err error
	member, err = cluster.Join(cfg)
	if err != nil {
		fatal(err)
	}

	// Export failures warn but do not change the exit code: the run's
	// verdict is already decided.
	exportTimeline := func(events []flight.Event) {
		if err := obsFlags.ExportTimeline(events); err != nil {
			fmt.Fprintf(os.Stderr, "dsmnode: %v\n", err)
		}
	}

	var obs *obshttp.Server
	if obsFlags.ObsAddr != "" {
		obs = serveObs(obsFlags.ObsAddr, *id, member)
	}
	if *chaosKill > 0 {
		// Die abruptly — no Leave, no verdict — once enough engine
		// traffic has flowed that the run is demonstrably mid-flight. The
		// survivors must detect the death and exit nonzero within their
		// deadlines: the clean-abort guarantee this flag exists to test.
		go func() {
			for member.DataFrames() < *chaosKill {
				time.Sleep(200 * time.Microsecond)
			}
			fmt.Fprintf(os.Stderr, "dsmnode %d: chaos kill after %d data frames\n", *id, member.DataFrames())
			dumpFlight()
			os.Exit(exitChaosKill)
		}()
	}

	// The member's life is the library's: Run wires the options, keeps the
	// telemetry flowing, tells the cluster of a local failure and returns
	// the cluster's verdict; what is left here is what to print.
	res, err := member.Run(o, func(o apps.Options) (apps.Result, error) { return apps.Run(spec, o) })
	switch {
	case err != nil:
		fmt.Fprintf(os.Stderr, "dsmnode %d: %v\n", *id, err)
		dumpFlight()
		// On node 0 the coordinator merges rings on the abort path too, so
		// a timeline export still works when the run died verifiably.
		if *id == 0 {
			exportTimeline(member.FlightTimeline())
		}
	case *id != 0:
		if *verbose {
			fmt.Fprintf(os.Stderr, "dsmnode %d: ok (digest %#x)\n", *id, res.Digest)
		}
	case *jsonOut:
		if jerr := writeArtifact(os.Stdout, canon, nn, o.Check, res); jerr != nil {
			fmt.Fprintf(os.Stderr, "dsmnode %d: json: %v\n", *id, jerr)
			os.Exit(exitOther)
		}
		exportTimeline(res.Flight)
	default:
		fmt.Printf("%s over %d processes\n", res.App, nn)
		fmt.Print(res.Metrics.Summary())
		if o.Check {
			fmt.Printf("check          invariants OK, oracle OK (%d ops), digest %#x\n",
				res.OracleOps, res.Digest)
		}
		if obsFlags.FlightCap > 0 {
			fmt.Printf("flight         %d event(s) in the merged timeline\n", len(res.Flight))
		}
		exportTimeline(res.Flight)
	}
	if sampler := member.Sampler(); *metricsJSON != "" && sampler != nil {
		if err := apps.WriteOut(*metricsJSON, sampler.WriteJSON); err != nil {
			fmt.Fprintf(os.Stderr, "dsmnode %d: metrics-json: %v\n", *id, err)
		}
	}
	if err := obs.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "dsmnode %d: debug listener died mid-run: %v\n", *id, err)
	}
	member.Leave()
	os.Exit(exitCode(err))
}

// artifact is the -json run record (node 0): the merged cluster view in
// one machine-readable object, mirroring what the text report prints.
type artifact struct {
	App       string        `json:"app"`
	Config    string        `json:"config"` // the canonical config string behind the handshake digest
	Processes int           `json:"processes"`
	Metrics   stats.Metrics `json:"metrics"`
	Check     bool          `json:"check"`
	Digest    string        `json:"digest,omitempty"`
	OracleOps int           `json:"oracle_ops,omitempty"`
	Flight    int           `json:"flight_events"`
}

func writeArtifact(w io.Writer, canon string, nn int, check bool, res apps.Result) error {
	a := artifact{
		App:       res.App,
		Config:    canon,
		Processes: nn,
		Metrics:   res.Metrics,
		Check:     check,
		OracleOps: res.OracleOps,
		Flight:    len(res.Flight),
	}
	if check {
		a.Digest = fmt.Sprintf("%#x", res.Digest)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(a)
}

// serveObs starts the debug listener: Go's pprof handlers, /metrics in
// Prometheus text exposition (on node 0 the cluster-aggregated view —
// this member's fresh snapshot merged with every shipped one), and
// /flight rendering this node's ring mid-run. Serving is best-effort —
// a dead listener never fails the run — but the returned server is
// closed on the exit paths so the accept goroutine never outlives the
// run.
func serveObs(addr string, id int, member *cluster.Member) *obshttp.Server {
	mux := obshttp.Handler(member.TelemetrySnapshots,
		func() ([]flight.Event, int, string) {
			rec := member.FlightRecorder()
			if rec == nil {
				return nil, http.StatusNotFound, "flight recorder disabled (run with -flight N)"
			}
			return rec.Snapshot(), http.StatusOK, ""
		})
	srv, err := obshttp.Start(addr, mux)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dsmnode %d: obs listener: %v\n", id, err)
		return nil
	}
	return srv
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dsmnode:", err)
	os.Exit(exitCode(err))
}
