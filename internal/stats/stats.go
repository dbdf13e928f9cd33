// Package stats collects protocol-level metrics for a DSM run: message
// counts and bytes by category, migration/redirection counters, and the
// derived quantities the paper's figures report (normalized execution
// time, message-number breakdowns, network traffic).
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
	"time"

	"repro/internal/sim"
)

// Category classifies every wire message for the Fig. 5(b) breakdown and
// for the network-traffic accounting of Fig. 3.
type Category uint8

// Message categories. The paper's figure 5(b) buckets map as:
// obj = ObjReq + ObjReply, mig = MigReply (its request is counted in
// ObjReq), diff = Diff (acks tracked separately), redir = Redir hops.
// Synchronization (Lock*, Barrier*) is excluded from the paper's message
// plots, as in §5.2 ("we do not consider synchronization messages").
const (
	ObjReq     Category = iota // object fault-in request
	ObjReply                   // fault-in reply, no migration
	MigReply                   // fault-in reply carrying home ownership
	Redir                      // forwarding-pointer hop of a redirected request
	HomeMiss                   // obsolete-home miss reply (manager/broadcast locators)
	MgrMsg                     // home-manager update/query/reply
	HomeBcast                  // broadcast of a new home location
	Diff                       // diff propagation to home
	DiffAck                    // acknowledgment of a diff application
	LockMsg                    // lock request/grant/release
	BarrierMsg                 // barrier arrive/go
	NumCategories
)

var catNames = [NumCategories]string{
	"objreq", "objreply", "migreply", "redir", "homemiss",
	"mgr", "homebcast", "diff", "diffack", "lock", "barrier",
}

func (c Category) String() string {
	if int(c) < len(catNames) {
		return catNames[c]
	}
	return fmt.Sprintf("cat(%d)", int(c))
}

// HistBuckets is the fixed bucket count of a latency histogram: bucket
// b holds observations v with bits.Len64(v) == b, i.e. v in
// [2^(b-1), 2^b), so the range covers 1ns up to ~34s in powers of two
// (larger observations saturate into the last bucket).
const HistBuckets = 36

// Hist is a fixed-bucket log2 latency histogram. The zero value is
// ready to use; Observe is allocation-free so it can run on protocol
// hot paths. Units are nanoseconds (virtual under sim, wall under
// live).
type Hist struct {
	Bucket [HistBuckets]int64
}

// Observe records one latency sample.
//
//dsm:hotpath
func (h *Hist) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	b := bits.Len64(uint64(v))
	if b >= HistBuckets {
		b = HistBuckets - 1
	}
	h.Bucket[b]++
}

// Count reports the total number of samples.
func (h *Hist) Count() int64 {
	var n int64
	for _, c := range h.Bucket {
		n += c
	}
	return n
}

// Add accumulates other into h (merging per-node histograms).
func (h *Hist) Add(other *Hist) {
	for i := range h.Bucket {
		h.Bucket[i] += other.Bucket[i]
	}
}

// Quantile returns the upper bound (2^b ns) of the bucket containing
// the q-quantile sample (0 < q <= 1), an upper estimate within 2x of
// the true value. The sample is the nearest rank, ⌈q·n⌉. Zero samples
// yield zero.
func (h *Hist) Quantile(q float64) time.Duration {
	total := h.Count()
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for b, c := range h.Bucket {
		seen += c
		if seen >= rank {
			return time.Duration(int64(1) << uint(b))
		}
	}
	return time.Duration(int64(1) << uint(HistBuckets))
}

// summary renders one histogram line: sample count and the p50/p90/p99
// bucket upper bounds.
func (h *Hist) summary() string {
	return fmt.Sprintf("n=%d p50≤%v p90≤%v p99≤%v",
		h.Count(), h.Quantile(0.50), h.Quantile(0.90), h.Quantile(0.99))
}

// Counters accumulates everything observed during one run. The zero value
// is ready to use.
type Counters struct {
	Msgs  [NumCategories]int64 // message counts
	Bytes [NumCategories]int64 // wire bytes

	Migrations      int64 // home migrations performed
	RedirectHops    int64 // total redirection accumulation (Σ hops)
	HomeWrites      int64 // write faults trapped at home copies
	HomeReads       int64 // read faults trapped at home copies
	ExclHomeWrites  int64 // positive-feedback events (E)
	RemoteWrites    int64 // diffs applied at homes
	FaultIns        int64 // object fault-ins served (obj + mig)
	PiggybackDiffs  int64 // diffs carried on sync messages instead of Diff msgs
	Retries         int64 // fault-in retries (broadcast locator)
	InvalidatedObjs int64 // cache entries dropped at acquires
	TwinsCreated    int64
	DiffsComputed   int64
	DiffWords       int64 // total words carried by all diffs

	// Latency histograms (log2 buckets, nanoseconds — virtual under
	// sim, wall-clock under live): how long a thread waited for a lock
	// grant, inside a barrier episode (arrive → go), and for a fault-in
	// round-trip (request → reply installed).
	LockHandoffNs Hist
	BarrierNs     Hist
	RoundTripNs   Hist
}

// Record notes one message of category c and m wire bytes.
func (s *Counters) Record(c Category, m int) {
	s.Msgs[c]++
	s.Bytes[c] += int64(m)
}

// TotalMsgs returns the total message count, optionally excluding
// synchronization traffic (the paper's plots exclude it).
func (s *Counters) TotalMsgs(includeSync bool) int64 {
	var n int64
	for c := Category(0); c < NumCategories; c++ {
		if !includeSync && (c == LockMsg || c == BarrierMsg) {
			continue
		}
		n += s.Msgs[c]
	}
	return n
}

// TotalBytes returns total wire bytes, optionally excluding sync traffic.
func (s *Counters) TotalBytes(includeSync bool) int64 {
	var n int64
	for c := Category(0); c < NumCategories; c++ {
		if !includeSync && (c == LockMsg || c == BarrierMsg) {
			continue
		}
		n += s.Bytes[c]
	}
	return n
}

// Breakdown is the Fig. 5(b) message-number decomposition.
type Breakdown struct {
	Obj   int64 // normal fault-in messages (request + plain reply)
	Mig   int64 // fault-in-with-migration messages (request + migrating reply)
	Diff  int64 // diff propagation messages
	Redir int64 // redirection hops
}

// Breakdown computes the paper's four-way split. Following §5.2: "the
// total number of object fault-in equals obj plus mig", so the fault-in
// request messages are attributed to the bucket of their reply. Diffs
// piggybacked on synchronization messages still count as diff
// propagations (the paper's Fig. 5(b) shows diff bars even though its
// GOS piggybacks them when object home == lock home).
func (s *Counters) Breakdown() Breakdown {
	return Breakdown{
		Obj:   s.Msgs[ObjReq] - s.Msgs[MigReply] + s.Msgs[ObjReply],
		Mig:   2 * s.Msgs[MigReply],
		Diff:  s.Msgs[Diff] + s.PiggybackDiffs,
		Redir: s.Msgs[Redir],
	}
}

// Total of the four buckets.
func (b Breakdown) Total() int64 { return b.Obj + b.Mig + b.Diff + b.Redir }

// Metrics is the result of one run, as surfaced by the public API.
type Metrics struct {
	ExecTime sim.Time
	// FinalTime is the virtual time when the simulation fully quiesced
	// (ExecTime plus post-run protocol drain). Together with Kernel it
	// fingerprints a run for determinism regression tests.
	FinalTime sim.Time
	// Kernel reports the simulation kernel's own counters.
	Kernel sim.EnvStats
	// Wall is the wall-clock duration of the run under the live engine
	// (zero under sim, where ExecTime carries virtual time instead).
	Wall time.Duration
	// LiveMsgs/LiveBytes count the encoded frames that crossed the live
	// transport (zero under sim; Counters classify the same traffic by
	// protocol category on both engines).
	LiveMsgs  int64
	LiveBytes int64
	// LivePeakInbox is the deepest any transport delivery queue got
	// during a live run (frames); LivePeakMailbox the deepest any
	// thread reply mailbox got. Both are the observability base for the
	// planned credit-based backpressure: today's queues are unbounded,
	// so a slow node shows up here before it shows up as memory.
	LivePeakInbox   int
	LivePeakMailbox int
	Counters
}

// EliminationPct returns the percentage of (fault-in + diff) messages this
// run eliminated relative to a baseline run — the §5.2 "87.2 % of object
// fault-ins and diff propagations are eliminated by FT1" statistic.
func EliminationPct(baseline, run *Counters) float64 {
	base := baseline.Breakdown()
	cur := run.Breakdown()
	b := base.Obj + base.Mig + base.Diff
	c := cur.Obj + cur.Mig + cur.Diff
	if b == 0 {
		return 0
	}
	return 100 * float64(b-c) / float64(b)
}

// Add accumulates other into s (used when merging per-node counters).
func (s *Counters) Add(other *Counters) {
	for c := Category(0); c < NumCategories; c++ {
		s.Msgs[c] += other.Msgs[c]
		s.Bytes[c] += other.Bytes[c]
	}
	s.Migrations += other.Migrations
	s.RedirectHops += other.RedirectHops
	s.HomeWrites += other.HomeWrites
	s.HomeReads += other.HomeReads
	s.ExclHomeWrites += other.ExclHomeWrites
	s.RemoteWrites += other.RemoteWrites
	s.FaultIns += other.FaultIns
	s.PiggybackDiffs += other.PiggybackDiffs
	s.Retries += other.Retries
	s.InvalidatedObjs += other.InvalidatedObjs
	s.TwinsCreated += other.TwinsCreated
	s.DiffsComputed += other.DiffsComputed
	s.DiffWords += other.DiffWords
	s.LockHandoffNs.Add(&other.LockHandoffNs)
	s.BarrierNs.Add(&other.BarrierNs)
	s.RoundTripNs.Add(&other.RoundTripNs)
}

// Summary renders a human-readable multi-line report.
func (m *Metrics) Summary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "exec time      %v\n", m.ExecTime)
	if m.Wall > 0 {
		fmt.Fprintf(&sb, "wall time      %v\n", m.Wall)
	}
	if m.LiveMsgs > 0 {
		fmt.Fprintf(&sb, "live frames    %d (%d bytes on the transport)\n", m.LiveMsgs, m.LiveBytes)
	}
	if m.LivePeakInbox > 0 || m.LivePeakMailbox > 0 {
		fmt.Fprintf(&sb, "queue peaks    inbox %d frames, mailbox %d msgs\n",
			m.LivePeakInbox, m.LivePeakMailbox)
	}
	fmt.Fprintf(&sb, "messages       %d (excl. sync: %d)\n", m.TotalMsgs(true), m.TotalMsgs(false))
	fmt.Fprintf(&sb, "network bytes  %d (excl. sync: %d)\n", m.TotalBytes(true), m.TotalBytes(false))
	b := m.Breakdown()
	fmt.Fprintf(&sb, "breakdown      obj=%d mig=%d diff=%d redir=%d\n", b.Obj, b.Mig, b.Diff, b.Redir)
	fmt.Fprintf(&sb, "migrations     %d   redirect hops %d   retries %d\n",
		m.Migrations, m.RedirectHops, m.Retries)
	fmt.Fprintf(&sb, "home writes    %d (exclusive %d)   home reads %d   remote writes %d\n",
		m.HomeWrites, m.ExclHomeWrites, m.HomeReads, m.RemoteWrites)
	fmt.Fprintf(&sb, "fault-ins      %d   piggybacked diffs %d\n", m.FaultIns, m.PiggybackDiffs)
	if m.LockHandoffNs.Count() > 0 {
		fmt.Fprintf(&sb, "lock handoff   %s\n", m.LockHandoffNs.summary())
	}
	if m.BarrierNs.Count() > 0 {
		fmt.Fprintf(&sb, "barrier wait   %s\n", m.BarrierNs.summary())
	}
	if m.RoundTripNs.Count() > 0 {
		fmt.Fprintf(&sb, "fault rtt      %s\n", m.RoundTripNs.summary())
	}
	for c := Category(0); c < NumCategories; c++ {
		if m.Msgs[c] > 0 {
			fmt.Fprintf(&sb, "  %-10s %8d msgs %12d bytes\n", c, m.Msgs[c], m.Bytes[c])
		}
	}
	return sb.String()
}
