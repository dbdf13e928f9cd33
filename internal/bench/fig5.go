package bench

import (
	"fmt"
	"io"

	"repro/internal/apps"
	"repro/internal/experiment"
	"repro/internal/stats"

	dsm "repro"
)

// Fig5Protocols are the §5.2 contenders: no migration, fixed thresholds
// 1 and 2, and the adaptive threshold.
var Fig5Protocols = []string{"NM", "FT1", "FT2", "AT"}

// Fig5Row is one bar group of Fig. 5: a protocol's absolute and
// normalized execution time, message count and message breakdown for one
// repetition of the single-writer pattern. With Trials > 1 every
// quantity is the per-trial mean and TimeAgg carries the time spread
// (the synthetic benchmark has no seeded input, so trials differ only
// if the protocol itself is nondeterministic — the spread doubles as a
// determinism check).
type Fig5Row struct {
	Repetition int
	Protocol   string
	Time       dsm.Time
	NormTime   float64 // normalized to the slowest protocol at this r
	Msgs       int64   // excluding synchronization messages (paper)
	NormMsgs   float64 // normalized to the largest count at this r
	Breakdown  stats.Breakdown
	Migrations int64
	// EliminationPct is the §5.2 statistic: percent of NM's fault-in +
	// diff messages this protocol eliminated.
	EliminationPct float64
	Trials         int
	TimeAgg        stats.TimeAgg
}

// Fig5Config parameterizes the synthetic sweep.
type Fig5Config struct {
	Repetitions  []int // default {2,4,8,16}
	Workers      int   // default 8, the paper's count
	TotalUpdates int   // default 2048
}

// Fig5 reproduces Figure 5: the synthetic single-writer benchmark run
// under each protocol across repetitions, with eight worker threads on
// nodes other than the start node and all synchronization at the start
// node (§5.2). The repetition × protocol × trial grid runs on the
// experiment pool; group normalization happens after deterministic
// reassembly, so parallel output is byte-identical to sequential.
func Fig5(cfg Fig5Config, o RunOpts) ([]Fig5Row, error) {
	if len(cfg.Repetitions) == 0 {
		cfg.Repetitions = []int{2, 4, 8, 16}
	}
	if cfg.Workers == 0 {
		cfg.Workers = 8
	}
	if cfg.TotalUpdates == 0 {
		cfg.TotalUpdates = 2048
	}
	K := o.trials()
	var specs []experiment.Spec
	for _, r := range cfg.Repetitions {
		for _, pol := range Fig5Protocols {
			for t := 0; t < K; t++ {
				specs = append(specs, experiment.Spec{
					Label: trialLabel(fmt.Sprintf("fig5 r=%d %s", r, pol), K, t),
					Run: func() (dsm.Metrics, error) {
						// Check gates on the invariants only: the synthetic
						// benchmark's final counter legitimately overshoots
						// by a timing-dependent amount (workers race the
						// target), so its digest is not policy-comparable.
						res, err := apps.RunSynthetic(apps.SyntheticOpts{
							Repetition:   r,
							TotalUpdates: cfg.TotalUpdates,
							Workers:      cfg.Workers,
						}, apps.Options{Config: dsm.Config{Nodes: cfg.Workers + 1, Policy: pol}, Seed: experiment.TrialSeed(t), Check: o.Check})
						return res.Metrics, err
					},
				})
			}
		}
	}
	ms, err := o.run(specs)
	if err != nil {
		return nil, err
	}
	var rows []Fig5Row
	i := 0
	for _, r := range cfg.Repetitions {
		var group []Fig5Row
		var nm *stats.Counters
		for _, pol := range Fig5Protocols {
			agg := stats.Aggregate(ms[i : i+K])
			i += K
			m := agg.Mean
			row := Fig5Row{
				Repetition: r,
				Protocol:   pol,
				Time:       m.ExecTime,
				Msgs:       m.TotalMsgs(false),
				Breakdown:  m.Breakdown(),
				Migrations: m.Migrations,
				Trials:     K,
				TimeAgg:    agg.ExecTime,
			}
			if pol == "NM" {
				c := m.Counters
				nm = &c
			}
			group = append(group, row)
		}
		// Normalize within the repetition group, as the paper does
		// ("for each repetition, the times are normalized to the largest
		// one among them").
		var maxT dsm.Time
		var maxM int64
		for _, g := range group {
			if g.Time > maxT {
				maxT = g.Time
			}
			if tot := g.Breakdown.Total(); tot > maxM {
				maxM = tot
			}
		}
		for i := range group {
			// Guard the degenerate all-zero group: a 0/0 here would put
			// NaN into every normalized column.
			if maxT > 0 {
				group[i].NormTime = float64(group[i].Time) / float64(maxT)
			}
			if maxM > 0 {
				group[i].NormMsgs = float64(group[i].Breakdown.Total()) / float64(maxM)
			}
			// The §5.2 statistic: eliminated fault-in + diff messages
			// relative to no-migration.
			nmTot := nm.Breakdown().Obj + nm.Breakdown().Mig + nm.Breakdown().Diff
			gTot := group[i].Breakdown.Obj + group[i].Breakdown.Mig + group[i].Breakdown.Diff
			if nmTot > 0 {
				group[i].EliminationPct = 100 * float64(nmTot-gTot) / float64(nmTot)
			}
		}
		rows = append(rows, group...)
	}
	return rows, nil
}

// PrintFig5a renders the normalized-execution-time panel.
func PrintFig5a(w io.Writer, rows []Fig5Row) {
	fmt.Fprintf(w, "Figure 5(a) — normalized execution time vs repetition of single-writer pattern\n\n")
	multi := len(rows) > 0 && rows[0].Trials > 1
	tw := tabw(w)
	if multi {
		fmt.Fprintf(tw, "repetition\tprotocol\ttime (s)\tnormalized\tmigrations\ttime range (s)\n")
	} else {
		fmt.Fprintf(tw, "repetition\tprotocol\ttime (s)\tnormalized\tmigrations\n")
	}
	for _, r := range rows {
		if multi {
			fmt.Fprintf(tw, "%d\t%s\t%.3f\t%.3f\t%d\t%s\n",
				r.Repetition, r.Protocol, r.Time.Seconds(), r.NormTime, r.Migrations,
				timeRange(r.TimeAgg.Min, r.TimeAgg.Max))
		} else {
			fmt.Fprintf(tw, "%d\t%s\t%.3f\t%.3f\t%d\n",
				r.Repetition, r.Protocol, r.Time.Seconds(), r.NormTime, r.Migrations)
		}
	}
	tw.Flush()
}

// PrintFig5b renders the normalized-message-number panel with the
// obj/mig/diff/redir breakdown and the §5.2 elimination statistic.
func PrintFig5b(w io.Writer, rows []Fig5Row) {
	fmt.Fprintf(w, "Figure 5(b) — normalized message number and breakdown (sync messages excluded)\n\n")
	tw := tabw(w)
	fmt.Fprintf(tw, "repetition\tprotocol\tnormalized\tobj\tmig\tdiff\tredir\telim. of obj+diff vs NM\n")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%s\t%.3f\t%d\t%d\t%d\t%d\t%.1f%%\n",
			r.Repetition, r.Protocol, r.NormMsgs,
			r.Breakdown.Obj, r.Breakdown.Mig, r.Breakdown.Diff, r.Breakdown.Redir,
			r.EliminationPct)
	}
	tw.Flush()
}
