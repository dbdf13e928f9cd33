//dsm:wallclock the driver times set-up from spawn to first op and bounds every launch with a deadline

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/flight"
	"repro/internal/stats"
)

// The driver side: it re-execs this binary as the children of one launch
// (four cluster members, or one in-process child), sleeps while they run,
// and turns their reports into metrics. Nothing here touches the DSM.

const (
	toyUnits       = epochs // timed units of the launches made only for their set-up: one per epoch
	memberProcs    = 2      // GOMAXPROCS of a cluster member
	inProcessProcs = 1      // GOMAXPROCS of an in-process child and of the probes
)

// launchResult is what one launch of a workload produced.
type launchResult struct {
	Reports []childReport // by member id; one entry in-process
	SetupS  float64       // spawn to the first op of the last thread to start
	Stderr  string
	Err     error
}

// launch runs one workload once and waits for every child. The deadline
// kills every child; a launch never hangs.
func launch(w workload, p runParams, traced bool, spanDir string, deadline time.Duration) launchResult {
	exe, err := os.Executable() // children are re-exec'd from this binary
	if err != nil {
		return launchResult{Err: err}
	}
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()

	spec := childSpec{
		Workload: w.Name, Kernel: w.Kernel, Engine: w.Engine, Policy: w.Policy,
		Params: p, Traced: traced, SpanDir: spanDir,
	}
	members, procs := 1, inProcessProcs
	var listeners []*os.File
	t0 := time.Now()
	if w.Engine == "tcp" {
		// Ports come from the kernel and are handed over as open
		// listeners, so concurrent benchmark runs cannot collide.
		members, procs = clusterNodes, memberProcs
		for i := 0; i < members; i++ {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return launchResult{Err: err}
			}
			f, err := ln.(*net.TCPListener).File()
			spec.Addrs = append(spec.Addrs, ln.Addr().String())
			ln.Close()
			if err != nil {
				return launchResult{Err: err}
			}
			listeners = append(listeners, f)
			defer f.Close()
		}
	}

	type child struct {
		cmd    *exec.Cmd
		stdin  interface{ Close() error }
		stdout bytes.Buffer
		stderr bytes.Buffer
	}
	children := make([]*child, members)
	res := launchResult{Reports: make([]childReport, members)}
	for i := range children {
		spec.ID = i
		arg, err := json.Marshal(spec)
		if err != nil {
			return launchResult{Err: err}
		}
		c := &child{cmd: exec.CommandContext(ctx, exe, "child", string(arg))}
		c.cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", procs))
		c.cmd.Stdout, c.cmd.Stderr = &c.stdout, &c.stderr
		c.cmd.WaitDelay = 2 * time.Second
		if listeners != nil {
			c.cmd.ExtraFiles = []*os.File{listeners[i]}
		}
		// The child exits when this pipe closes: it cannot outlive the
		// driver.
		if c.stdin, err = c.cmd.StdinPipe(); err == nil {
			err = c.cmd.Start()
		}
		if err != nil {
			cancel()
			for _, started := range children[:i] {
				started.cmd.Wait()
			}
			return launchResult{Err: fmt.Errorf("starting child %d: %w", i, err)}
		}
		children[i] = c
	}
	var errs []string
	for i, c := range children {
		werr := c.cmd.Wait()
		c.stdin.Close()
		res.Stderr += c.stderr.String()
		lines := strings.Split(strings.TrimSpace(c.stdout.String()), "\n")
		if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res.Reports[i]); jerr != nil {
			errs = append(errs, fmt.Sprintf("child %d: no report (%v)", i, werr))
			continue
		}
		switch {
		case res.Reports[i].Err != "":
			errs = append(errs, fmt.Sprintf("child %d: %s", i, res.Reports[i].Err))
		case werr != nil:
			errs = append(errs, fmt.Sprintf("child %d: %v", i, werr))
		}
	}
	if ctx.Err() != nil {
		errs = append(errs, fmt.Sprintf("deadline of %v exceeded, children killed", deadline))
	}
	if len(errs) > 0 {
		res.Err = fmt.Errorf("%s: %s", w.Name, strings.Join(errs, "; "))
	}
	var first int64
	for _, r := range res.Reports {
		for _, t := range r.Threads {
			first = max(first, t.FirstOp)
		}
	}
	if first > 0 {
		res.SetupS = float64(first-t0.UnixNano()) / 1e9
	}
	return res
}

// runSummary is the driver's reading of one launch's reports.
type runSummary struct {
	timedOps, totalOps int64
	wallS              float64
	startAt, endAt     int64     // the timed region: first start line to last end line, Unix nanoseconds
	epochRate          []float64 // ops per second, per epoch
	op, fault, sync    hist      // the whole timed region
	turnWait           hist
	metrics            stats.Metrics
	maxRSSKB           int64
	delta              resources // end line minus start line, summed over children
	framesSent         int64
	bytesSent          int64
	spanNs, spanCount  [numSpanKinds]int64
	threadNs           int64 // timed region, summed over the threads that ran ops
	joinNs, finishNs   int64
	digest             uint64
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func summarize(res launchResult) *runSummary {
	s := &runSummary{epochRate: make([]float64, epochs)}
	for _, r := range res.Reports {
		for _, t := range r.Threads {
			s.totalOps += t.TimedOps + t.WarmOps
			s.turnWait.addSparse(t.TurnWait)
			if t.TimedOps == 0 || len(t.EpochEnd) != epochs {
				continue
			}
			s.timedOps += t.TimedOps
			if s.startAt == 0 || t.Start < s.startAt {
				s.startAt = t.Start
			}
			s.endAt = max(s.endAt, t.End)
			s.threadNs += t.End - t.Start
			s.wallS = max(s.wallS, float64(t.End-t.Start)/1e9)
			s.op.addSparse(t.Op)
			s.fault.addSparse(t.Fault)
			s.sync.addSparse(t.Sync)
			prev := t.Start
			for e, end := range t.EpochEnd {
				// Each thread's rate over its own epoch; they sum to the
				// cluster's.
				if end > prev {
					s.epochRate[e] += float64(t.TimedOps) / epochs / (float64(end-prev) / 1e9)
				}
				prev = end
			}
		}
		s.maxRSSKB = max(s.maxRSSKB, r.End.MaxRSSKB)
		s.delta.CPUNs += r.End.CPUNs - r.Start.CPUNs
		s.delta.Mallocs += r.End.Mallocs - r.Start.Mallocs
		s.delta.AllocBytes += r.End.AllocBytes - r.Start.AllocBytes
		s.delta.GCCycles += r.End.GCCycles - r.Start.GCCycles
		s.delta.GCPauseNs += r.End.GCPauseNs - r.Start.GCPauseNs
		s.delta.ReadCalls += r.End.ReadCalls - r.Start.ReadCalls
		s.delta.WriteCalls += r.End.WriteCalls - r.Start.WriteCalls
		s.framesSent += r.FramesSent
		s.bytesSent += r.BytesSent
		for k := range r.SpanNs {
			s.spanNs[k] += r.SpanNs[k]
			s.spanCount[k] += r.SpanCount[k]
		}
		s.joinNs = max(s.joinNs, r.JoinNs)
		s.finishNs = max(s.finishNs, r.FinishNs)
	}
	if len(res.Reports) > 0 {
		s.metrics = res.Reports[0].Metrics
		s.digest = res.Reports[0].Digest
	}
	return s
}

// msgsAndBytes reports the protocol traffic of a run: the frames that
// crossed the live transport, or under sim the category totals.
func (s *runSummary) msgsAndBytes() (msgs, bytes int64) {
	if s.metrics.LiveMsgs > 0 {
		return s.metrics.LiveMsgs, s.metrics.LiveBytes
	}
	return s.metrics.TotalMsgs(true), s.metrics.TotalBytes(true)
}

func perOp(v float64, ops int64) float64 {
	if ops == 0 {
		return 0
	}
	return v / float64(ops)
}

// measurement is one workload measured once: the metrics, and the ops
// behind them for the failure count.
type measurement struct {
	Values    map[string]float64
	Attempted int64
	Failed    int64
	Errors    []string
	Samples   map[string]int64 // latency sample counts
	WallS     float64
	Units     int
	Digest    uint64
	// EpochRates are the end-to-end run's ops per second, epoch by epoch,
	// as measured; HostFactor is what the reported timings are divided by,
	// SetupFactor what setup_s is.
	EpochRates              []float64
	HostFactor, SetupFactor float64
}

// note counts a launch's ops as attempted, and as failed if the launch
// failed.
func (m *measurement) note(res launchResult, s *runSummary) {
	ops := max(s.totalOps, 1) // a launch that died before reporting still counts
	m.Attempted += ops
	if res.Err != nil {
		m.Failed += ops
		m.Errors = append(m.Errors, res.Err.Error())
		if res.Stderr != "" {
			m.Errors = append(m.Errors, strings.TrimSpace(res.Stderr))
		}
	}
}

// launchDeadline bounds a launch sized for seconds. The work is fixed, so
// a slower host takes longer over it: this allows one several times
// slower, and stays inside the caller's own limit.
func launchDeadline(seconds float64) time.Duration {
	return time.Duration(seconds*4*float64(time.Second)) + 45*time.Second
}

// measureEndToEnd runs w untraced, the calibrator beside it: w.Launches-1
// toy launches for their set-up time, then the measured launch. The timings
// are reported as the undisturbed reference host would read them: divided
// by the host factor of the time they were taken in, the rate multiplied.
func measureEndToEnd(w workload, seconds float64, seed uint64, skew int) measurement {
	m := measurement{Values: map[string]float64{}, Samples: map[string]int64{}}
	// A cluster's members spread over every CPU, and so does the calibrator
	// beside them. A single in-process child feels the state of the one core
	// it runs on, so it is bound to one CPU together with the calibrator,
	// which then reads that core.
	unpin := func() {}
	if w.Engine != "tcp" {
		unpin = pinToOneCPU()
	}
	defer unpin()
	toys := max(w.Launches, 1) - 1
	cal, err := startCalibrator(time.Duration(toys)*launchDeadline(1) + launchDeadline(seconds) + 10*time.Second)
	if err != nil {
		m.Errors = append(m.Errors, err.Error())
		return m
	}
	var setups []float64
	toy := runParams{Warm: 2, Units: toyUnits, Seed: seed}
	toysFrom := time.Now().UnixNano()
	for i := 0; i < toys; i++ {
		res := launch(w, toy, false, "", launchDeadline(1))
		m.note(res, summarize(res))
		if res.Err == nil {
			setups = append(setups, res.SetupS)
		}
	}
	toysTo := time.Now().UnixNano()
	p := runParams{Warm: w.Warm, Units: w.timedUnits(seconds), Seed: seed, Skew: skew}
	res := launch(w, p, false, "", launchDeadline(seconds))
	samples, err := cal.stop()
	if err != nil {
		m.Errors = append(m.Errors, err.Error())
	}
	s := summarize(res)
	m.note(res, s)
	m.HostFactor, m.SetupFactor = hostFactor(samples, s.startAt, s.endAt), hostFactor(samples, toysFrom, toysTo)
	if res.Err == nil {
		setups = append(setups, res.SetupS)
	}
	msgs, bytes := s.msgsAndBytes()
	v := m.Values
	v["setup_s"] = median(setups) / m.SetupFactor
	// Means, because the host factor is one: a median flips from the fast
	// to the slow speed as the slow share of a run passes one half, a mean
	// grows with the share as the calibrator's does. The latencies' means
	// leave out the tails, where the host's hiccups land.
	if s.wallS > 0 {
		v["ops_per_s"] = float64(s.timedOps) / s.wallS * m.HostFactor
	}
	v["fault_mean_us"] = s.fault.meanBetween(0.05, 0.95) / 1e3 / m.HostFactor
	v["sync_mean_us"] = s.sync.meanBetween(0.05, 0.95) / 1e3 / m.HostFactor
	v["msgs_per_op"] = perOp(float64(msgs), s.totalOps)
	v["bytes_per_op"] = perOp(float64(bytes), s.totalOps)
	v["cpu_ms_per_kop"] = perOp(float64(s.delta.CPUNs)/1e6, s.timedOps) * 1e3 / m.HostFactor
	v["peak_rss_mb"] = float64(s.maxRSSKB) / 1024
	m.Samples["fault"], m.Samples["sync"] = s.fault.n, s.sync.n
	m.WallS, m.Units, m.Digest = s.wallS, p.Units, s.digest
	m.EpochRates = s.epochRate
	return m
}

// runProbeChild runs the layer probes in a child at GOMAXPROCS=1.
func runProbeChild() (map[string]float64, error) {
	res := launch(workload{Name: "probes", Engine: "probe"}, runParams{}, false, "", 90*time.Second)
	if res.Err != nil {
		return nil, fmt.Errorf("%w\n%s", res.Err, res.Stderr)
	}
	return res.Reports[0].Probes, nil
}

// measureLayers runs w's work for seconds twice, untraced for reference
// and traced, and derives the per-layer metrics; probes are the layer
// probe results. The merged Chrome trace goes to tracePath.
func measureLayers(w workload, seconds float64, seed uint64, probes map[string]float64, tracePath string) measurement {
	m := measurement{Values: map[string]float64{}, Samples: map[string]int64{}}
	for name, val := range probes {
		m.Values[name] = val
	}
	p := runParams{Warm: w.Warm, Units: w.timedUnits(seconds), Seed: seed}
	ref := launch(w, p, false, "", launchDeadline(seconds))
	rs := summarize(ref)
	m.note(ref, rs)

	if err := os.MkdirAll(filepath.Dir(tracePath), 0o755); err != nil {
		m.Errors = append(m.Errors, err.Error())
		return m
	}
	spanDir, err := os.MkdirTemp(filepath.Dir(tracePath), "spans-")
	if err != nil {
		m.Errors = append(m.Errors, err.Error())
		return m
	}
	defer os.RemoveAll(spanDir)
	abs, err := filepath.Abs(spanDir)
	if err != nil {
		m.Errors = append(m.Errors, err.Error())
		return m
	}
	tr := launch(w, p, true, abs, launchDeadline(seconds))
	ts := summarize(tr)
	m.note(tr, ts)
	if tr.Err == nil {
		if err := mergeTrace(abs, tracePath); err != nil {
			m.Errors = append(m.Errors, "chrome trace: "+err.Error())
		}
	}

	v := m.Values
	c := &ts.metrics.Counters
	us := func(k spanKind) float64 { return perOp(float64(ts.spanNs[k])/1e3, ts.timedOps) }
	if w.Engine == "sim" {
		v["sim.events_per_s"] = perOp(float64(ts.metrics.Kernel.Events), ts.totalOps) * median(ts.epochRate)
		v["virt_us_per_op"] = perOp(float64(ts.metrics.ExecTime)/1e3, ts.totalOps)
	}
	v["thread.acquire_us_per_op"] = us(spAcquire)
	v["thread.release_us_per_op"] = us(spRelease)
	v["thread.barrier_us_per_op"] = us(spBarrier)
	v["thread.fault_us_per_op"] = us(spAccess)
	inCalls := ts.spanNs[spAcquire] + ts.spanNs[spRelease] + ts.spanNs[spBarrier] + ts.spanNs[spAccess]
	v["thread.compute_us_per_op"] = perOp(float64(max(ts.threadNs-inCalls, 0))/1e3, ts.timedOps)
	v["thread.turn_wait_p50_us"] = ts.turnWait.quantile(0.50) / 1e3
	// One op's latency and the tails come from the untraced reference, over
	// its whole timed region: a host hiccup lands in the tails, which is
	// why they carry no bound.
	v["thread.op_p50_us"] = rs.op.quantile(0.50) / 1e3
	v["thread.fault_p50_us"] = rs.fault.quantile(0.50) / 1e3
	v["thread.sync_p50_us"] = rs.sync.quantile(0.50) / 1e3
	v["thread.op_p99_us"] = rs.op.quantile(0.99) / 1e3
	v["thread.fault_p99_us"] = rs.fault.quantile(0.99) / 1e3
	v["thread.sync_p99_us"] = rs.sync.quantile(0.99) / 1e3
	v["transport.send_us_per_op"] = us(spSend)
	v["transport.send_calls_per_op"] = perOp(float64(ts.spanCount[spSend]), ts.timedOps)
	if ts.wallS > 0 {
		v["transport.recv_wait_share"] = float64(ts.spanNs[spRecvWait]) / 1e9 / (clusterNodes * ts.wallS)
	}
	v["transport.inbox_peak"] = float64(ts.metrics.LivePeakInbox)
	v["transport.mailbox_peak"] = float64(ts.metrics.LivePeakMailbox)
	for name, cat := range map[string]stats.Category{
		"objreq": stats.ObjReq, "objreply": stats.ObjReply, "migreply": stats.MigReply,
		"diff": stats.Diff, "diffack": stats.DiffAck, "lockmsg": stats.LockMsg,
		"barriermsg": stats.BarrierMsg, "redir": stats.Redir,
	} {
		v["proto."+name+"_per_op"] = perOp(float64(c.Msgs[cat]), ts.totalOps)
	}
	v["proto.faultins_per_op"] = perOp(float64(c.FaultIns), ts.totalOps)
	v["proto.migrations_per_kop"] = perOp(float64(c.Migrations), ts.totalOps) * 1e3
	v["proto.retries_per_kop"] = perOp(float64(c.Retries), ts.totalOps) * 1e3
	if flushed := c.PiggybackDiffs + c.Msgs[stats.Diff]; flushed > 0 {
		v["proto.piggyback_share"] = float64(c.PiggybackDiffs) / float64(flushed)
	}
	v["twindiff.twins_per_op"] = perOp(float64(c.TwinsCreated), ts.totalOps)
	v["twindiff.diffs_per_op"] = perOp(float64(c.DiffsComputed), ts.totalOps)
	v["twindiff.diff_words_per_op"] = perOp(float64(c.DiffWords), ts.totalOps)
	if w.Engine == "tcp" {
		v["tcp.frames_per_op"] = perOp(float64(ts.framesSent), ts.totalOps)
		v["tcp.wire_bytes_per_op"] = perOp(float64(ts.bytesSent), ts.totalOps)
		if ts.framesSent > 0 {
			v["tcp.nondata_frame_share"] = max(1-float64(ts.metrics.LiveMsgs)/float64(ts.framesSent), 0)
		}
		v["tcp.read_syscalls_per_op"] = perOp(float64(ts.delta.ReadCalls), ts.timedOps)
		v["tcp.write_syscalls_per_op"] = perOp(float64(ts.delta.WriteCalls), ts.timedOps)
		v["cluster.join_ms"] = float64(ts.joinNs) / 1e6
	}
	v["cluster.finish_ms"] = float64(ts.finishNs) / 1e6
	v["runtime.allocs_per_op"] = perOp(float64(ts.delta.Mallocs), ts.timedOps)
	v["runtime.alloc_bytes_per_op"] = perOp(float64(ts.delta.AllocBytes), ts.timedOps)
	v["runtime.gc_cycles"] = float64(ts.delta.GCCycles)
	v["runtime.gc_pause_ms"] = float64(ts.delta.GCPauseNs) / 1e6
	if ref := median(rs.epochRate); ref > 0 {
		v["trace.overhead_share"] = 1 - median(ts.epochRate)/ref
	}
	budget(v, w, probes, rs.fault.quantile(0.50)/1e3, rs.sync.quantile(0.50)/1e3)
	m.Samples["thread.op"], m.Samples["thread.fault"], m.Samples["thread.sync"] = rs.op.n, rs.fault.n, rs.sync.n
	m.WallS, m.Units, m.Digest = ts.wallS, p.Units, ts.digest
	return m
}

// budget sets the workload's measured fault-in and synchronization
// medians (µs) against what the probes account for along one round trip —
// request out, handler, reply back. The probe rows are reported as
// measured; unattributed is the remainder: queue wait, wake-up and
// scheduling, which no probe sees. Should the probes alone exceed the
// median (they time each layer apart, on one P), the excess is overshoot
// and nothing is unattributed, so that always
// wire + hop + proto + unattributed - overshoot = p50.
func budget(v map[string]float64, w workload, probes map[string]float64, faultP50, syncP50 float64) {
	if w.Engine == "sim" {
		return // no wire, no transport: virtual time is the cost model
	}
	ns := func(name string) float64 { return probes[name] / 1e3 }
	small := ns("wire.encode_small_ns") + ns("wire.decode_small_ns")
	row := ns("wire.encode_row_ns") + ns("wire.decode_row_ns")
	hopSmall, hopRow := ns("tcp.hop_small_ns"), ns("tcp.hop_row_ns")
	if w.Engine == "inproc" {
		hopSmall = ns("transport.chanloop_hop_ns")
		hopRow = hopSmall
	}
	split := func(prefix string, measured, wire, hop, handler float64) {
		rest := measured - wire - hop - handler
		v[prefix+".p50_us"] = measured
		v[prefix+".wire_us"], v[prefix+".hop_us"], v[prefix+".proto_us"] = wire, hop, handler
		v[prefix+".unattributed_us"], v[prefix+".overshoot_us"] = max(rest, 0), max(-rest, 0)
	}
	if w.Kernel == "sor" {
		// Fault: small request out, 2 KB row back. Sync: one barrier
		// arrival's share of an episode, and the go message back.
		split("budget.fault", faultP50, small+row, hopSmall+hopRow, ns("proto.handle_objreq_ns"))
		split("budget.sync", syncP50, 2*small, 2*hopSmall, ns("proto.handle_barrier_ns")/clusterNodes)
		return
	}
	// Lock kernel: the counter is one word, so both directions are small
	// frames. Sync is Acquire(lock1): the request half of a manager round.
	split("budget.fault", faultP50, 2*small, 2*hopSmall, ns("proto.handle_objreq_ns"))
	split("budget.sync", syncP50, 2*small, 2*hopSmall, ns("proto.handle_lock_ns")/2)
}

// mergeTrace folds the children's span files into one Chrome-trace file.
func mergeTrace(spanDir, tracePath string) error {
	files, err := filepath.Glob(filepath.Join(spanDir, "spans-*.json"))
	if err != nil {
		return err
	}
	var spans []span
	var fl []flight.Event
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		var sf spanFile
		if err := json.Unmarshal(data, &sf); err != nil {
			return fmt.Errorf("%s: %w", f, err)
		}
		spans = append(spans, sf.Spans...)
		fl = append(fl, sf.Flight...)
	}
	out, err := os.Create(tracePath)
	if err != nil {
		return err
	}
	if err := writeChromeTrace(out, spans, fl); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
