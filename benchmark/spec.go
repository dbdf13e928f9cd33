package main

// The benchmark's fixed vocabulary: workloads, metric names and units.
// BENCHMARK.json at the repository root lists the same names with their
// bounds; TestSpecMatchesBenchmarkJSON keeps the two in step.

// workload is one benchmark configuration: a kernel on an engine under a
// migration policy. The cluster size is fixed so protocol counts per op
// are comparable across hosts.
type workload struct {
	Name   string
	Kernel string // "lock" or "sor"
	Engine string // "tcp" (4 OS processes), "inproc" (ChanLoop) or "sim"
	Policy string
	// The work is fixed, in units of one turn per worker (lock) or one
	// iteration (sor), so per-op counts do not depend on the host's speed.
	// Warm is the untimed warm-up, long enough for migration to settle.
	// PerSecond is the timed units per second of -seconds, sized so that
	// the timed region lasts about -seconds on a 2-vCPU 2.1 GHz host.
	Warm      int
	PerSecond float64
	// Launches is the number of launches one measurement makes, all but the
	// last at toy size; setup_s is the median of their set-up times.
	// Starting a cluster takes a third of a second all told; starting one
	// in-process child, ten milliseconds that the host's noise moves by
	// half, so it is repeated more often.
	Launches int
	Why      string
}

// timedUnits is w's timed work for a run of the given length: whole
// epochs, scaled linearly by seconds.
func (w workload) timedUnits(seconds float64) int {
	return max(int(w.PerSecond*seconds/epochs), 1) * epochs
}

const (
	clusterNodes = 4
	lockWorkers  = clusterNodes - 1 // nodes 1..3; node 0 only hosts homes and managers
	lockReps     = 8                // r of the paper's §5.2 kernel
	sorSize      = 256              // 256 rows of 2 KB
	epochs       = 10
)

var workloads = []workload{
	{Name: "lock-tcp", Kernel: "lock", Engine: "tcp", Policy: "AT", Warm: 500, PerSecond: 320, Launches: 13,
		Why: "tiny frames on a serial lock chain: per-frame TCP hop, queue hand-off and wake-up dominate"},
	{Name: "lock-inproc", Kernel: "lock", Engine: "inproc", Policy: "AT", Warm: 4000, PerSecond: 12000, Launches: 81,
		Why: "same kernel over ChanLoop at GOMAXPROCS=1: bypasses TCP, so codec, queue, proto handlers and allocation are the cost"},
	{Name: "sor-tcp", Kernel: "sor", Engine: "tcp", Policy: "AT", Warm: 400, PerSecond: 880, Launches: 13,
		Why: "after migration settles the read path remains: 2 KB boundary-row fault-ins and barriers over TCP"},
	{Name: "sor-nohm-tcp", Kernel: "sor", Engine: "tcp", Policy: "NoHM", Warm: 16, PerSecond: 40, Launches: 13,
		Why: "same input without migration, the paper's baseline and the write path: twins, sparse diffs, flush bursts, acks"},
	{Name: "lock-sim", Kernel: "lock", Engine: "sim", Policy: "AT", Warm: 4000, PerSecond: 15000, Launches: 81,
		Why: "lock kernel on the virtual-time engine: no codec or transport, guards the simulator's own speed"},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// exact names, per workload, the metrics the deterministic engine repeats
// bit for bit from run to run: compare holds them to bound 0 there,
// whatever BENCHMARK.json allows the metric on the live workloads.
var exact = map[string][]string{"lock-sim": {"msgs_per_op", "bytes_per_op", "virt_us_per_op"}}

type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd are the metrics a user of the system sees; every workload
// reports every one. Latencies are wall-clock time the calling thread
// spends in the call, so under lock-sim they are the host cost of
// simulating it (the modelled latency is virt_us_per_op, per layer).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"fault_mean_us", "us", "lower"},
	{"sync_mean_us", "us", "lower"},
	{"msgs_per_op", "count", "lower"},
	{"bytes_per_op", "B", "lower"},
	{"cpu_ms_per_kop", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// probeMetrics come from timed calls into each layer's exported
// functions, the same whatever the workload.
var probeMetrics = []metricDef{
	{"wire.encode_small_ns", "ns", "lower"},
	{"wire.decode_small_ns", "ns", "lower"},
	{"wire.decode_small_allocs", "count", "lower"},
	{"wire.encode_row_ns", "ns", "lower"},
	{"wire.decode_row_ns", "ns", "lower"},
	{"wire.decode_row_allocs", "count", "lower"},
	{"wire.encode_diff_ns", "ns", "lower"},
	{"wire.decode_diff_ns", "ns", "lower"},
	{"wire.decode_diff_allocs", "count", "lower"},
	{"twindiff.twin_ns", "ns", "lower"},
	{"twindiff.compute_sparse_ns", "ns", "lower"},
	{"twindiff.compute_dense_ns", "ns", "lower"},
	{"twindiff.apply_sparse_ns", "ns", "lower"},
	{"twindiff.merge_ns", "ns", "lower"},
	{"twindiff.compute_sparse_allocs", "count", "lower"},
	{"transport.chanloop_hop_ns", "ns", "lower"},
	{"transport.chanloop_hop_allocs", "count", "lower"},
	{"tcp.hop_small_ns", "ns", "lower"},
	{"tcp.hop_row_ns", "ns", "lower"},
	{"tcp.hop_allocs", "count", "lower"},
	{"tcp.burst_frames_per_s", "1/s", "higher"},
	{"tcp.overhead_bytes_per_frame", "B", "lower"},
	{"proto.handle_objreq_ns", "ns", "lower"},
	{"proto.handle_objreq_allocs", "count", "lower"},
	{"proto.handle_objreq_migrate_ns", "ns", "lower"},
	{"proto.handle_objreq_migrate_allocs", "count", "lower"},
	{"proto.handle_diff_ns", "ns", "lower"},
	{"proto.handle_diff_allocs", "count", "lower"},
	{"proto.handle_lock_ns", "ns", "lower"},
	{"proto.handle_lock_allocs", "count", "lower"},
	{"proto.handle_barrier_ns", "ns", "lower"},
	{"proto.handle_barrier_allocs", "count", "lower"},
	{"migration.decide_ns", "ns", "lower"},
}

// tracedMetrics come from the traced run of the workload, and the budget
// rows from its untraced reference. A metric of a layer the workload does
// not cross reads 0.
var tracedMetrics = []metricDef{
	{"sim.events_per_s", "1/s", "higher"},
	{"virt_us_per_op", "us", "lower"},
	{"thread.acquire_us_per_op", "us", "lower"},
	{"thread.release_us_per_op", "us", "lower"},
	{"thread.barrier_us_per_op", "us", "lower"},
	{"thread.fault_us_per_op", "us", "lower"},
	{"thread.compute_us_per_op", "us", "lower"},
	{"thread.turn_wait_p50_us", "us", "lower"},
	{"thread.op_p50_us", "us", "lower"},
	{"thread.fault_p50_us", "us", "lower"},
	{"thread.sync_p50_us", "us", "lower"},
	{"thread.op_p99_us", "us", "lower"},
	{"thread.fault_p99_us", "us", "lower"},
	{"thread.sync_p99_us", "us", "lower"},
	{"transport.send_us_per_op", "us", "lower"},
	{"transport.send_calls_per_op", "count", "lower"},
	{"transport.recv_wait_share", "ratio", "higher"},
	{"transport.inbox_peak", "count", "lower"},
	{"transport.mailbox_peak", "count", "lower"},
	{"proto.objreq_per_op", "count", "lower"},
	{"proto.objreply_per_op", "count", "lower"},
	{"proto.migreply_per_op", "count", "lower"},
	{"proto.diff_per_op", "count", "lower"},
	{"proto.diffack_per_op", "count", "lower"},
	{"proto.lockmsg_per_op", "count", "lower"},
	{"proto.barriermsg_per_op", "count", "lower"},
	{"proto.redir_per_op", "count", "lower"},
	{"proto.faultins_per_op", "count", "lower"},
	{"proto.migrations_per_kop", "count", "lower"},
	{"proto.retries_per_kop", "count", "lower"},
	{"proto.piggyback_share", "ratio", "higher"},
	{"twindiff.twins_per_op", "count", "lower"},
	{"twindiff.diffs_per_op", "count", "lower"},
	{"twindiff.diff_words_per_op", "count", "lower"},
	{"tcp.frames_per_op", "count", "lower"},
	{"tcp.wire_bytes_per_op", "B", "lower"},
	{"tcp.nondata_frame_share", "ratio", "lower"},
	{"tcp.read_syscalls_per_op", "count", "lower"},
	{"tcp.write_syscalls_per_op", "count", "lower"},
	{"cluster.join_ms", "ms", "lower"},
	{"cluster.finish_ms", "ms", "lower"},
	{"runtime.allocs_per_op", "count", "lower"},
	{"runtime.alloc_bytes_per_op", "B", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_pause_ms", "ms", "lower"},
	{"trace.overhead_share", "ratio", "lower"},
	// Budget: the untraced reference's p50 against the probe rows summed
	// along one round trip. Unattributed is the remainder (queue wait,
	// wake-up, scheduling); overshoot, what the probes claim beyond the
	// p50: wire + hop + proto + unattributed - overshoot = p50.
	{"budget.fault.p50_us", "us", "lower"},
	{"budget.fault.wire_us", "us", "lower"},
	{"budget.fault.hop_us", "us", "lower"},
	{"budget.fault.proto_us", "us", "lower"},
	{"budget.fault.unattributed_us", "us", "lower"},
	{"budget.fault.overshoot_us", "us", "lower"},
	{"budget.sync.p50_us", "us", "lower"},
	{"budget.sync.wire_us", "us", "lower"},
	{"budget.sync.hop_us", "us", "lower"},
	{"budget.sync.proto_us", "us", "lower"},
	{"budget.sync.unattributed_us", "us", "lower"},
	{"budget.sync.overshoot_us", "us", "lower"},
}

// perLayer is every per-layer metric, probes first.
var perLayer = append(append([]metricDef(nil), probeMetrics...), tracedMetrics...)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet maps metric name to value.
type metricSet map[string]metric

// fill builds a metricSet holding exactly defs, reading values from v;
// a name v lacks reads 0.
func fill(defs []metricDef, v map[string]float64) metricSet {
	out := make(metricSet, len(defs))
	for _, d := range defs {
		out[d.Name] = metric{Value: v[d.Name], Unit: d.Unit}
	}
	return out
}
