package stats

import "repro/internal/sim"

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
// every message/byte counter, protocol counter, virtual time and kernel
// statistic is summed and divided by the trial count. MeanOf of a single
// run is that run, unchanged.
func MeanOf(ms []Metrics) Metrics {
	if len(ms) == 0 {
		panic("stats: MeanOf of zero runs")
	}
	if len(ms) == 1 {
		return ms[0]
	}
	n := int64(len(ms))
	var sum Metrics
	for i := range ms {
		m := &ms[i]
		sum.Counters.Add(&m.Counters)
		sum.ExecTime += m.ExecTime
		sum.FinalTime += m.FinalTime
		sum.Kernel.Events += m.Kernel.Events
		sum.Kernel.Activations += m.Kernel.Activations
		sum.Kernel.Spawned += m.Kernel.Spawned
	}
	for c := Category(0); c < NumCategories; c++ {
		sum.Msgs[c] /= n
		sum.Bytes[c] /= n
	}
	sum.Migrations /= n
	sum.RedirectHops /= n
	sum.HomeWrites /= n
	sum.HomeReads /= n
	sum.ExclHomeWrites /= n
	sum.RemoteWrites /= n
	sum.FaultIns /= n
	sum.PiggybackDiffs /= n
	sum.Retries /= n
	sum.InvalidatedObjs /= n
	sum.TwinsCreated /= n
	sum.DiffsComputed /= n
	sum.DiffWords /= n
	sum.ExecTime /= sim.Time(n)
	sum.FinalTime /= sim.Time(n)
	sum.Kernel.Events /= uint64(n)
	sum.Kernel.Activations /= uint64(n)
	sum.Kernel.Spawned /= int(n)
	return sum
}
