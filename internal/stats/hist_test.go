package stats

import (
	"strings"
	"testing"
	"time"
)

func TestHistObserveBucketing(t *testing.T) {
	var h Hist
	h.Observe(0) // bits.Len64(0) = 0
	h.Observe(1) // bucket 1: [1,2)
	h.Observe(2) // bucket 2: [2,4)
	h.Observe(3)
	h.Observe(1024) // bucket 11
	h.Observe(-5)   // clamps to 0
	if h.Bucket[0] != 2 || h.Bucket[1] != 1 || h.Bucket[2] != 2 || h.Bucket[11] != 1 {
		t.Fatalf("unexpected buckets: %v", h.Bucket[:12])
	}
	if h.Count() != 6 {
		t.Fatalf("Count = %d, want 6", h.Count())
	}
}

func TestHistSaturatesLastBucket(t *testing.T) {
	var h Hist
	h.Observe(int64(1) << 62) // way past the 36-bucket range
	if h.Bucket[HistBuckets-1] != 1 {
		t.Fatalf("huge sample not saturated: %v", h.Bucket)
	}
}

func TestHistQuantile(t *testing.T) {
	var h Hist
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile should be zero")
	}
	for i := 0; i < 90; i++ {
		h.Observe(100) // bucket 7, upper bound 128ns
	}
	for i := 0; i < 10; i++ {
		h.Observe(1_000_000) // bucket 20, upper bound ~1.05ms
	}
	if got := h.Quantile(0.50); got != 128*time.Nanosecond {
		t.Errorf("p50 = %v, want 128ns", got)
	}
	if got := h.Quantile(0.99); got != time.Duration(1<<20) {
		t.Errorf("p99 = %v, want %v", got, time.Duration(1<<20))
	}
}

// TestHistQuantileNearestRank: the q-quantile is the ⌈q·n⌉-th sample, so
// the median of one fast and two slow samples is slow, and one slow
// sample in fifty is the p99.
func TestHistQuantileNearestRank(t *testing.T) {
	var h Hist
	h.Observe(100)     // 100 ns: bucket 7
	h.Observe(100_000) // 100 µs: bucket 17
	h.Observe(100_000)
	if got, want := h.Quantile(0.5), time.Duration(1<<17); got != want {
		t.Errorf("p50 of {100ns, 100µs, 100µs} = %v, want %v", got, want)
	}
	var g Hist
	for i := 0; i < 49; i++ {
		g.Observe(100)
	}
	g.Observe(1_000_000) // bucket 20
	if got, want := g.Quantile(0.99), time.Duration(1<<20); got != want {
		t.Errorf("p99 of 49 fast and 1 slow = %v, want %v", got, want)
	}
	if got := g.Quantile(0.9); got != 128*time.Nanosecond {
		t.Errorf("p90 of 49 fast and 1 slow = %v, want 128ns", got)
	}
}

func TestHistAddMerges(t *testing.T) {
	var a, b Hist
	a.Observe(10)
	b.Observe(10)
	b.Observe(100000)
	a.Add(&b)
	if a.Count() != 3 {
		t.Fatalf("merged Count = %d, want 3", a.Count())
	}
	if a.Bucket[4] != 2 { // 10 → bits.Len64 = 4
		t.Fatalf("bucket 4 = %d after merge, want 2", a.Bucket[4])
	}
}

func TestCountersAddMergesHists(t *testing.T) {
	var a, b Counters
	a.LockHandoffNs.Observe(50)
	b.LockHandoffNs.Observe(50)
	b.BarrierNs.Observe(2000)
	b.RoundTripNs.Observe(30000)
	a.Add(&b)
	if a.LockHandoffNs.Count() != 2 || a.BarrierNs.Count() != 1 || a.RoundTripNs.Count() != 1 {
		t.Fatalf("Counters.Add dropped histogram samples: lock=%d barrier=%d rtt=%d",
			a.LockHandoffNs.Count(), a.BarrierNs.Count(), a.RoundTripNs.Count())
	}
}

func TestSummaryRendersHistsOnlyWhenPopulated(t *testing.T) {
	var m Metrics
	if s := m.Summary(); strings.Contains(s, "lock handoff") {
		t.Errorf("empty histograms rendered:\n%s", s)
	}
	m.LockHandoffNs.Observe(1500)
	m.BarrierNs.Observe(80000)
	m.RoundTripNs.Observe(250000)
	s := m.Summary()
	for _, want := range []string{"lock handoff", "barrier wait", "fault rtt", "p50≤", "p99≤"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
}

// Satellite edge cases: the telemetry path renders quantiles off merged
// and sometimes-empty histograms, so the corners must hold exactly.

func TestHistQuantileEmpty(t *testing.T) {
	var h Hist
	for _, q := range []float64{0.01, 0.5, 0.99, 1.0} {
		if got := h.Quantile(q); got != 0 {
			t.Fatalf("Quantile(%v) on empty hist = %v, want 0", q, got)
		}
	}
}

func TestHistQuantileOverflowBucket(t *testing.T) {
	// Samples past the bucket range saturate into the last bucket; every
	// quantile must then report that bucket's upper bound — never
	// something past the histogram's range.
	var h Hist
	h.Observe(int64(1) << 62)
	h.Observe((int64(1) << 62) + 12345)
	want := time.Duration(int64(1) << (HistBuckets - 1))
	for _, q := range []float64{0.5, 0.99, 1.0} {
		if got := h.Quantile(q); got != want {
			t.Fatalf("Quantile(%v) = %v, want saturated bound %v", q, got, want)
		}
	}
}

func TestHistQuantileStableUnderMerge(t *testing.T) {
	// Two heavily skewed histograms — one all-fast, one all-slow. The
	// merged quantiles must be identical regardless of merge order, and
	// the median of the symmetric merge must sit in the fast mode while
	// the tail reports the slow mode.
	fast, slow := &Hist{}, &Hist{}
	for i := 0; i < 1000; i++ {
		fast.Observe(100) // bucket 7, bound 128ns
	}
	for i := 0; i < 10; i++ {
		slow.Observe(1 << 20) // bucket 21, bound ~2ms
	}
	ab, ba := &Hist{}, &Hist{}
	ab.Add(fast)
	ab.Add(slow)
	ba.Add(slow)
	ba.Add(fast)
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999, 1.0} {
		if ab.Quantile(q) != ba.Quantile(q) {
			t.Fatalf("merge order changed Quantile(%v): %v vs %v", q, ab.Quantile(q), ba.Quantile(q))
		}
	}
	if got := ab.Quantile(0.5); got != 128*time.Nanosecond {
		t.Fatalf("merged p50 = %v, want 128ns (the fast mode)", got)
	}
	if got := ab.Quantile(1.0); got != time.Duration(int64(1)<<21) {
		t.Fatalf("merged p100 = %v, want %v (the slow mode)", got, time.Duration(int64(1)<<21))
	}
	if ab.Count() != 1010 {
		t.Fatalf("merged Count = %d, want 1010", ab.Count())
	}
}
