package stats

import (
	"time"

	"repro/internal/sim"
)

// TimeAgg summarizes a virtual-time quantity over K trials.
type TimeAgg struct {
	Mean, Min, Max sim.Time
}

// TrialAgg is the mean/min/max summary of one sweep configuration run
// over K trials with per-trial input seeds.
type TrialAgg struct {
	N        int
	ExecTime TimeAgg
	// Mean is the field-wise integer mean of every trial metric (all
	// counters, times and kernel stats); with N == 1 it is the trial
	// itself. Figure rows are built from it so multi-trial tables keep
	// the single-trial shape.
	Mean Metrics
}

// Aggregate summarizes the trials of one configuration. It panics on an
// empty slice — a sweep always has at least one trial.
func Aggregate(ms []Metrics) TrialAgg {
	if len(ms) == 0 {
		panic("stats: Aggregate of zero trials")
	}
	a := TrialAgg{N: len(ms), Mean: MeanOf(ms)}
	a.ExecTime = TimeAgg{Mean: a.Mean.ExecTime, Min: ms[0].ExecTime, Max: ms[0].ExecTime}
	for i := range ms {
		a.ExecTime.Min = min(a.ExecTime.Min, ms[i].ExecTime)
		a.ExecTime.Max = max(a.ExecTime.Max, ms[i].ExecTime)
	}
	return a
}

// MeanOf returns the field-wise integer mean of the given run metrics:
// every field — message/byte counters, protocol counters, latency
// histogram buckets, virtual and wall times, live frame counts and queue
// peaks, kernel statistics — is summed (Add) and divided by the run
// count. MeanOf of K identical runs is that run, unchanged.
func MeanOf(ms []Metrics) Metrics {
	if len(ms) == 0 {
		panic("stats: MeanOf of zero runs")
	}
	if len(ms) == 1 {
		return ms[0]
	}
	var sum Metrics
	for i := range ms {
		sum.Add(&ms[i])
	}
	sum.div(int64(len(ms)))
	return sum
}

// Add accumulates o into m, field by field.
func (m *Metrics) Add(o *Metrics) {
	m.ExecTime += o.ExecTime
	m.FinalTime += o.FinalTime
	m.Kernel.Events += o.Kernel.Events
	m.Kernel.Activations += o.Kernel.Activations
	m.Kernel.Spawned += o.Kernel.Spawned
	m.Wall += o.Wall
	m.LiveMsgs += o.LiveMsgs
	m.LiveBytes += o.LiveBytes
	m.LivePeakInbox += o.LivePeakInbox
	m.LivePeakMailbox += o.LivePeakMailbox
	m.Counters.Add(&o.Counters)
}

// div divides every field of m by n (integer division).
func (m *Metrics) div(n int64) {
	m.ExecTime /= sim.Time(n)
	m.FinalTime /= sim.Time(n)
	m.Kernel.Events /= uint64(n)
	m.Kernel.Activations /= uint64(n)
	m.Kernel.Spawned /= int(n)
	m.Wall /= time.Duration(n)
	m.LiveMsgs /= n
	m.LiveBytes /= n
	m.LivePeakInbox /= int(n)
	m.LivePeakMailbox /= int(n)
	s := &m.Counters
	for c := Category(0); c < NumCategories; c++ {
		s.Msgs[c] /= n
		s.Bytes[c] /= n
	}
	s.Migrations /= n
	s.RedirectHops /= n
	s.HomeWrites /= n
	s.HomeReads /= n
	s.ExclHomeWrites /= n
	s.RemoteWrites /= n
	s.FaultIns /= n
	s.PiggybackDiffs /= n
	s.Retries /= n
	s.InvalidatedObjs /= n
	s.TwinsCreated /= n
	s.DiffsComputed /= n
	s.DiffWords /= n
	for _, h := range []*Hist{&s.LockHandoffNs, &s.BarrierNs, &s.RoundTripNs} {
		for b := range h.Bucket {
			h.Bucket[b] /= n
		}
	}
}
