package bench

import (
	"fmt"
	"io"

	"repro/internal/apps"
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
// node (§5.2). The grid is repetition workloads × protocol variants; group
// normalization works on the sweep's declaration-ordered outcomes, so
// parallel output is byte-identical to sequential.
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
	var ws []workload
	for _, r := range cfg.Repetitions {
		ws = append(ws, application(fmt.Sprintf("r=%d", r),
			apps.Spec{App: "synthetic", Rep: r, Updates: cfg.TotalUpdates, Workers: cfg.Workers}, cfg.Workers+1))
	}
	vs := policies(Fig5Protocols...)
	t, err := o.sweep(vs, ws, figLabel("fig5", vs, ws))
	if err != nil {
		return nil, err
	}
	var rows []Fig5Row
	for w, r := range cfg.Repetitions {
		// Normalize within the repetition group, as the paper does
		// ("for each repetition, the times are normalized to the largest
		// one among them").
		var (
			group = make([]stats.TrialAgg, len(vs))
			nm    *stats.Counters
			maxT  dsm.Time
			maxM  int64
		)
		for v, pol := range Fig5Protocols {
			group[v] = t.agg(v, w)
			m := &group[v].Mean
			if pol == "NM" {
				nm = &m.Counters
			}
			maxT, maxM = max(maxT, m.ExecTime), max(maxM, m.Breakdown().Total())
		}
		for v, pol := range Fig5Protocols {
			m := &group[v].Mean
			row := Fig5Row{
				Repetition: r,
				Protocol:   pol,
				Time:       m.ExecTime,
				Msgs:       m.TotalMsgs(false),
				Breakdown:  m.Breakdown(),
				Migrations: m.Migrations,
				// The §5.2 statistic: eliminated fault-in + diff messages
				// relative to no-migration.
				EliminationPct: stats.EliminationPct(nm, &m.Counters),
				Trials:         group[v].N,
				TimeAgg:        group[v].ExecTime,
			}
			// Guard the degenerate all-zero group: a 0/0 here would put
			// NaN into every normalized column.
			if maxT > 0 {
				row.NormTime = float64(row.Time) / float64(maxT)
			}
			if maxM > 0 {
				row.NormMsgs = float64(row.Breakdown.Total()) / float64(maxM)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// PrintFig5a renders the normalized-execution-time panel.
func PrintFig5a(w io.Writer, rows []Fig5Row) {
	fmt.Fprintf(w, "Figure 5(a) — normalized execution time vs repetition of single-writer pattern\n\n")
	multi := len(rows) > 0 && rows[0].Trials > 1
	tw := tabw(w)
	tableRow(tw, multi, "repetition\tprotocol\ttime (s)\tnormalized\tmigrations", "time range (s)")
	for _, r := range rows {
		tableRow(tw, multi,
			fmt.Sprintf("%d\t%s\t%.3f\t%.3f\t%d", r.Repetition, r.Protocol, r.Time.Seconds(), r.NormTime, r.Migrations),
			timeRange(r.TimeAgg.Min, r.TimeAgg.Max))
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
