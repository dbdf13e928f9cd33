//dsm:wallclock a benchmark child times cluster join and finish and drives the telemetry ticker

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	dsm "repro"

	"repro/internal/apps"
	"repro/internal/flight"
	"repro/internal/live/cluster"
	"repro/internal/live/transport"
	"repro/internal/live/transport/tcp"
	"repro/internal/memory"
	"repro/internal/telemetry"
)

// childSpec tells a re-exec'd benchmark process what to run: one member
// of the 4-process TCP cluster, the whole cluster in-process (live over
// ChanLoop, or sim), or the layer probes.
type childSpec struct {
	Workload string
	Kernel   string
	Engine   string // "tcp", "inproc", "sim", "probe" or "calib"
	Policy   string
	ID       int      // member id (tcp)
	Addrs    []string // member addresses; this member's listener is fd 3 (tcp)
	Params   runParams
	Traced   bool
	SpanDir  string // traced: directory for this process's spans and flight timeline
}

// resources is a process's cumulative resource use at one instant.
type resources struct {
	CPUNs      int64 // user + system
	MaxRSSKB   int64 // VmHWM; 0 off Linux
	Mallocs    uint64
	AllocBytes uint64
	GCCycles   uint32
	GCPauseNs  uint64
	ReadCalls  int64 // /proc/self/io syscr; 0 off Linux
	WriteCalls int64
}

func snapshotResources() resources {
	r := resources{CPUNs: processCPU()}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.Mallocs, r.AllocBytes, r.GCCycles, r.GCPauseNs = ms.Mallocs, ms.TotalAlloc, ms.NumGC, ms.PauseTotalNs
	if data, err := os.ReadFile("/proc/self/io"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			fmt.Sscanf(line, "syscr: %d", &r.ReadCalls)
			fmt.Sscanf(line, "syscw: %d", &r.WriteCalls)
		}
	}
	// Rusage's maxrss survives exec, so a child's starts at the driver's
	// peak; the address space's own high-water mark does not.
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			fmt.Sscanf(line, "VmHWM: %d kB", &r.MaxRSSKB)
		}
	}
	return r
}

// threadReport is one application thread's measurements. Instants are
// Unix nanoseconds, comparable across the processes of one host.
type threadReport struct {
	Thread   int
	FirstOp  int64   // the first op; 0 for a thread that runs none
	Start    int64   // start line
	EpochEnd []int64 // end of each timed epoch
	End      int64   // end line
	TimedOps int64
	WarmOps  int64
	// Latency histograms of the timed region, in sparse form.
	Op, Fault, Sync, TurnWait [][2]int64
}

// childReport is what a child prints as its last line of standard output.
type childReport struct {
	ID         int
	Err        string
	GOMAXPROCS int
	Threads    []threadReport
	Digest     uint64
	// Metrics are the run's protocol metrics: cluster-merged on every
	// member of a TCP cluster.
	Metrics    dsm.Metrics
	Start, End resources // at the start line and the end line
	JoinNs     int64     // cluster.Join (tcp)
	FinishNs   int64     // end line to verdict: quiesce, reconcile, merge
	// Link counters summed over this member's peers (tcp).
	FramesSent, BytesSent int64
	// Span sums and counts of the traced run, indexed by spanKind.
	SpanNs, SpanCount []int64
	Probes            map[string]float64
}

func childMain(arg string) int {
	var spec childSpec
	if err := json.Unmarshal([]byte(arg), &spec); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark child: bad spec:", err)
		return 2
	}
	if spec.Engine == "calib" {
		return calibMain()
	}
	// The driver holds the other end of standard input; when it goes
	// away, however it dies, so does this child.
	go func() {
		buf := make([]byte, 64)
		for {
			if _, err := os.Stdin.Read(buf); err != nil {
				os.Exit(3)
			}
		}
	}()
	rep := childReport{ID: spec.ID, GOMAXPROCS: runtime.GOMAXPROCS(0)}
	var err error
	switch spec.Engine {
	case "probe":
		rep.Probes, err = runProbes(false)
	case "tcp":
		err = runMember(spec, &rep)
	case "inproc", "sim":
		err = runInProcess(spec, &rep)
	default:
		err = fmt.Errorf("unknown engine %q", spec.Engine)
	}
	if err != nil {
		rep.Err = err.Error()
	}
	out := bufio.NewWriter(os.Stdout)
	if jerr := json.NewEncoder(out).Encode(rep); jerr != nil {
		fmt.Fprintln(os.Stderr, "benchmark child: report:", jerr)
		return 2
	}
	if ferr := out.Flush(); ferr != nil {
		return 2
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark child %d: %v\n", spec.ID, err)
		return 1
	}
	return 0
}

// runState is the harness state one kernel run shares with its hooks.
type runState struct {
	mu         sync.Mutex
	started    bool
	start, end resources
	endAt      time.Time
	tr         *tracer
}

func (s *runState) hooks() hooks {
	h := hooks{
		// Threads of one process cross the lines at different instants;
		// the first start and the last end bracket the timed region.
		start: func() {
			s.mu.Lock()
			if !s.started {
				s.started = true
				s.start = snapshotResources()
				if s.tr != nil {
					s.tr.enable(true)
				}
			}
			s.mu.Unlock()
		},
		end: func() {
			s.mu.Lock()
			s.end, s.endAt = snapshotResources(), time.Now()
			s.mu.Unlock()
		},
	}
	if s.tr != nil {
		h.wrap = s.tr.wrapThread
	}
	return h
}

// fillReport copies the kernel's recorders and the harness state into
// rep, once the run is over.
func (s *runState) fillReport(rep *childReport, k kernel) {
	wall := func(mono int64) int64 { return clockBase.UnixNano() + mono }
	for i, r := range k.recorders() {
		if r == nil {
			continue // a peer process's thread, stubbed here
		}
		tr := threadReport{
			Thread: i, FirstOp: r.firstOp, Start: wall(r.start), End: wall(r.end),
			TimedOps: r.timedOps, WarmOps: r.warmOps,
			Op: r.op.sparse(), Fault: r.fault.sparse(), Sync: r.sync.sparse(), TurnWait: r.turnWait.sparse(),
		}
		for _, end := range r.epochEnd {
			tr.EpochEnd = append(tr.EpochEnd, wall(end))
		}
		rep.Threads = append(rep.Threads, tr)
	}
	rep.Start, rep.End = s.start, s.end
	if s.tr != nil {
		s.tr.enable(false)
		rep.SpanNs, rep.SpanCount = s.tr.sum[:], s.tr.count[:]
	}
}

const flightCap = 1 << 14

// runInProcess runs the whole cluster in this process: the live engine
// over ChanLoop, or the sim engine.
func runInProcess(spec childSpec, rep *childReport) error {
	st := &runState{}
	cfg := dsm.Config{Nodes: clusterNodes, Policy: spec.Policy, Engine: "live"}
	if spec.Engine == "sim" {
		cfg.Engine = "sim"
	}
	if spec.Traced {
		st.tr = newTracer()
		cfg.FlightCap = flightCap
		if spec.Engine == "inproc" {
			cfg.Transport = tracedChanLoop{transport.NewChanLoop(clusterNodes), st.tr}
		}
	}
	k, err := newKernel(spec.Kernel, spec.Params, st.hooks())
	if err != nil {
		return err
	}
	c := dsm.New(cfg)
	k.declare(c)
	m, err := c.RunWorkers(k.workers())
	st.fillReport(rep, k)
	rep.Metrics = m
	if err != nil {
		return err
	}
	if err := c.CheckInvariants(); err != nil {
		return err
	}
	rep.Digest = c.Digest()
	rep.FinishNs = int64(time.Since(st.endAt))
	if spec.Traced {
		if err := writeSpans(spec, st.tr.spans(), c.FlightEvents()); err != nil {
			return err
		}
	}
	return k.validate(c)
}

// runMember runs this process's node of the 4-process TCP cluster, wired
// the way cmd/dsmnode wires a member by default: telemetry registry and
// hot-object sink attached, a snapshot shipped to node 0 every 250 ms.
func runMember(spec childSpec, rep *childReport) error {
	lf := os.NewFile(3, "listener")
	ln, err := net.FileListener(lf)
	lf.Close()
	if err != nil {
		return fmt.Errorf("inherited listener: %w", err)
	}
	// Every member must build the identical cluster: the handshake
	// rejects a peer whose configuration digest differs.
	h := fnv.New64a()
	fmt.Fprintf(h, "benchmark|%s|%s|%s|%+v|%t", spec.Workload, spec.Kernel, spec.Policy, spec.Params, spec.Traced)
	id := memory.NodeID(spec.ID)
	ccfg := cluster.Config{
		ID: id, Addrs: spec.Addrs, Digest: h.Sum64(), Check: true, Listener: ln,
		OnFatal: func(err error) {
			fmt.Fprintf(os.Stderr, "benchmark member %d: cluster broken: %v\n", spec.ID, err)
			os.Exit(5)
		},
	}
	if spec.Traced {
		ccfg.FlightCap = flightCap
	}
	joinStart := time.Now()
	member, err := cluster.Join(ccfg)
	if err != nil {
		return err
	}
	rep.JoinNs = int64(time.Since(joinStart))
	defer member.Leave()

	st := &runState{}
	var tr dsm.Transport = member
	if spec.Traced {
		st.tr = newTracer()
		tr = tracedMember{member, st.tr}
	}
	reg := telemetry.NewRegistry(spec.ID, fmt.Sprintf("policy=%q", spec.Policy))
	sink := telemetry.NewSink(0)
	reg.AttachSink(sink)
	registerLinkMetrics(reg, member)
	k, err := newKernel(spec.Kernel, spec.Params, st.hooks())
	if err != nil {
		return abort(member, err)
	}
	c := dsm.New(dsm.Config{
		Nodes: clusterNodes, Policy: spec.Policy, Engine: "live",
		Transport: tr, LocalNode: &id, FlightLocal: member.FlightRecorder(),
		Telemetry: sink, Metrics: reg,
	})
	k.declare(c)

	sampler := telemetry.NewSampler(reg, 4096)
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				sampler.Tick(time.Now().UnixNano())
				member.ShipTelemetry(reg.Snapshot())
			}
		}
	}()
	m, err := c.RunWorkers(k.workers())
	close(stop)
	<-done
	st.fillReport(rep, k)
	if err != nil {
		return abort(member, err)
	}
	res := apps.Result{App: spec.Workload, Metrics: m}
	if err := member.FinishApp(c, &res, true, false); err != nil {
		return err
	}
	rep.FinishNs = int64(time.Since(st.endAt))
	rep.Metrics = res.Metrics
	rep.Digest = member.Digest()
	for p := 0; p < clusterNodes; p++ {
		if ps, ok := member.PeerStats(memory.NodeID(p)); ok {
			rep.FramesSent += ps.FramesSent
			rep.BytesSent += ps.BytesSent
		}
	}
	if spec.Traced {
		if err := writeSpans(spec, st.tr.spans(), member.FlightTimeline()); err != nil {
			return err
		}
	}
	if spec.ID != 0 {
		return nil // node 0 validates the reconciled memory for the cluster
	}
	return k.validate(c)
}

// abort reports a local failure into the cluster's verdict exchange, so
// the other members fail too instead of waiting for this one.
func abort(member *cluster.Member, err error) error {
	if !member.Completed() {
		if aerr := member.AbortApp(err); aerr != nil {
			return fmt.Errorf("%w (cluster: %v)", err, aerr)
		}
	}
	return err
}

// registerLinkMetrics gives the member's registry the per-peer link
// counters cmd/dsmnode registers, so a shipped snapshot has its usual
// size.
func registerLinkMetrics(reg *telemetry.Registry, member *cluster.Member) {
	reg.CounterFunc("dsm_data_frames_total", "Engine data frames sent plus received by this member.", "", member.DataFrames)
	reg.GaugeFunc("dsm_inbox_depth", "Current depth of this member's data inbox.", "",
		func() int64 { return int64(member.InboxLen()) })
	reg.GaugeFunc("dsm_inbox_peak", "High-water mark of the data inbox depth.", "",
		func() int64 { return int64(member.PeakDepth()) })
	for j := 0; j < clusterNodes; j++ {
		p := memory.NodeID(j)
		if p == member.LocalNode() {
			continue
		}
		label := fmt.Sprintf("peer=\"%d\"", j)
		stat := func(get func(tcp.PeerStats) int64) func() int64 {
			return func() int64 {
				ps, _ := member.PeerStats(p)
				return get(ps)
			}
		}
		reg.CounterFunc("dsm_peer_frames_sent_total", "Frames sent to this peer.", label,
			stat(func(ps tcp.PeerStats) int64 { return ps.FramesSent }))
		reg.CounterFunc("dsm_peer_frames_recv_total", "Frames received from this peer.", label,
			stat(func(ps tcp.PeerStats) int64 { return ps.FramesRecv }))
		reg.CounterFunc("dsm_peer_bytes_sent_total", "Wire bytes sent to this peer.", label,
			stat(func(ps tcp.PeerStats) int64 { return ps.BytesSent }))
		reg.CounterFunc("dsm_peer_bytes_recv_total", "Wire bytes received from this peer.", label,
			stat(func(ps tcp.PeerStats) int64 { return ps.BytesRecv }))
	}
}

// spanFile is what a traced child leaves in SpanDir for the driver.
type spanFile struct {
	Spans  []span
	Flight []flight.Event
}

func writeSpans(spec childSpec, spans []span, fl []flight.Event) error {
	data, err := json.Marshal(spanFile{Spans: spans, Flight: fl})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(spec.SpanDir, fmt.Sprintf("spans-%d.json", spec.ID)), data, 0o644)
}
