package bench

import (
	"fmt"
	"io"

	"repro/internal/stats"

	dsm "repro"
)

// Fig2Row is one point of Fig. 2: an application's execution time at a
// processor count, with home migration disabled (NoHM) and enabled (HM,
// the adaptive-threshold protocol). With Trials > 1 the times and
// message counts are trial means and the *Agg fields carry the spread.
type Fig2Row struct {
	App   string
	Procs int
	NoHM  dsm.Time
	HM    dsm.Time
	// Msgs for the curious (the paper plots time only in Fig. 2).
	NoHMMsgs, HMMsgs int64
	// Trials is the number of seeded runs aggregated into this row.
	Trials int
	// NoHMAgg/HMAgg are the per-trial execution-time spreads.
	NoHMAgg, HMAgg stats.TimeAgg
}

// Fig2 reproduces Figure 2: execution time against the number of
// processors for ASP, SOR, Nbody and TSP, with the home migration
// protocol disabled and enabled (§5.1). One thread runs per node, as in
// the paper. The grid is (app, procs) workloads × the NoHM and AT
// variants; the two policies of a point share its input key.
func Fig2(s Sizes, procs []int, o RunOpts) ([]Fig2Row, error) {
	if len(procs) == 0 {
		procs = []int{2, 4, 8, 16}
	}
	rows, ws := fig2Grid(s, procs)
	vs := policies("NoHM", "AT")
	t, err := o.sweep(vs, ws, figLabel("fig2", vs, ws))
	if err != nil {
		return nil, err
	}
	for w := range rows {
		rows[w].set(t.agg(0, w), t.agg(1, w))
	}
	return rows, nil
}

// fig2Grid declares Fig. 2's workloads — every application at every
// processor count, named and keyed "ASP p=8" — and their rows, to be set
// from the runs.
func fig2Grid(s Sizes, procs []int) ([]Fig2Row, []workload) {
	var rows []Fig2Row
	var ws []workload
	for _, app := range Apps {
		for _, p := range procs {
			rows = append(rows, Fig2Row{App: app, Procs: p})
			ws = append(ws, application(fmt.Sprintf("%s p=%d", app, p), s.Spec(app), p))
		}
	}
	return rows, ws
}

// set fills r from its point's runs without migration and under AT.
func (r *Fig2Row) set(nohm, hm stats.TrialAgg) {
	r.NoHM, r.NoHMMsgs, r.NoHMAgg = nohm.Mean.ExecTime, nohm.Mean.TotalMsgs(false), nohm.ExecTime
	r.HM, r.HMMsgs, r.HMAgg = hm.Mean.ExecTime, hm.Mean.TotalMsgs(false), hm.ExecTime
	r.Trials = nohm.N
}

// PrintFig2 renders the four panels of Fig. 2 as tables.
func PrintFig2(w io.Writer, s Sizes, rows []Fig2Row) {
	fmt.Fprintf(w, "Figure 2 — execution time vs processors (NoHM vs HM/AT)\n")
	fmt.Fprintf(w, "sizes: ASP n=%d, SOR %dx%d/%d iters, Nbody n=%d/%d steps, TSP %d cities\n\n",
		s.ASPN, s.SORN, s.SORN, s.SORIters, s.NbodyN, s.NbodySteps, s.TSPCities)
	multi := len(rows) > 0 && rows[0].Trials > 1
	tw := tabw(w)
	tableRow(tw, multi, "app\tprocs\tNoHM (s)\tHM (s)\tspeedup\tNoHM msgs\tHM msgs", "NoHM range (s)\tHM range (s)")
	for _, r := range rows {
		tableRow(tw, multi,
			fmt.Sprintf("%s\t%d\t%.3f\t%.3f\t%s\t%d\t%d", r.App, r.Procs, r.NoHM.Seconds(), r.HM.Seconds(),
				ratioStr(float64(r.NoHM), float64(r.HM), "%.2fx"), r.NoHMMsgs, r.HMMsgs),
			timeRange(r.NoHMAgg.Min, r.NoHMAgg.Max)+"\t"+timeRange(r.HMAgg.Min, r.HMAgg.Max))
	}
	tw.Flush()
}
