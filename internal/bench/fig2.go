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

// fig2Policies: migration off, then the paper's adaptive protocol.
var fig2Policies = []string{"NoHM", "AT"}

// Fig2 reproduces Figure 2: execution time against the number of
// processors for ASP, SOR, Nbody and TSP, with the home migration
// protocol disabled and enabled (§5.1). One thread runs per node, as in
// the paper. The grid is app × procs × policy; the two policies of an
// (app, procs) point share its input key.
func Fig2(s Sizes, procs []int, o RunOpts) ([]Fig2Row, error) {
	if len(procs) == 0 {
		procs = []int{2, 4, 8, 16}
	}
	var rows []Fig2Row
	var cells []cell
	for _, app := range Apps {
		for _, p := range procs {
			rows = append(rows, Fig2Row{App: app, Procs: p, Trials: o.trials()})
			for _, pol := range fig2Policies {
				cells = append(cells, cell{
					label: fmt.Sprintf("fig2 %s p=%d %s", app, p, pol),
					key:   fmt.Sprintf("%s p=%d", app, p),
					run:   o.runner(s.Spec(app), dsm.Config{Nodes: p, Policy: pol}),
				})
			}
		}
	}
	outs, err := o.sweep(cells)
	if err != nil {
		return nil, err
	}
	for i := range rows {
		r, nohm, hm := &rows[i], outs[2*i], outs[2*i+1] // fig2Policies order
		r.NoHM, r.NoHMMsgs, r.NoHMAgg = nohm.Mean.ExecTime, nohm.Mean.TotalMsgs(false), nohm.ExecTime
		r.HM, r.HMMsgs, r.HMAgg = hm.Mean.ExecTime, hm.Mean.TotalMsgs(false), hm.ExecTime
	}
	return rows, nil
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
