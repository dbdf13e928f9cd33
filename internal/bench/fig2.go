package bench

import (
	"fmt"
	"io"

	"repro/internal/apps"
	"repro/internal/experiment"
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
// the paper. The grid (app × procs × policy × trial) is flattened into
// experiment specs and executed on the worker pool; rows come back in
// presentation order regardless of completion order.
func Fig2(s Sizes, procs []int, o RunOpts) ([]Fig2Row, error) {
	if len(procs) == 0 {
		procs = []int{2, 4, 8, 16}
	}
	K := o.trials()
	var specs []experiment.Spec
	var digests []uint64 // sized before the pool runs; slots are per-spec
	for _, app := range Apps {
		for _, p := range procs {
			for _, pol := range fig2Policies {
				for t := 0; t < K; t++ {
					seed := experiment.TrialSeed(t)
					idx := len(specs)
					specs = append(specs, experiment.Spec{
						Label: trialLabel(fmt.Sprintf("fig2 %s p=%d %s", app, p, pol), K, t),
						Run: func() (dsm.Metrics, error) {
							res, err := runApp(app, s, apps.Options{Config: dsm.Config{Nodes: p, Policy: pol}, Seed: seed, Check: o.Check})
							digests[idx] = res.Digest
							return res.Metrics, err
						},
					})
				}
			}
		}
	}
	digests = make([]uint64, len(specs))
	ms, err := o.run(specs)
	if err != nil {
		return nil, err
	}
	if o.Check {
		// The two policies of each (app, procs, trial) cell saw the same
		// input; home migration must not have changed the results.
		err := checkDigests(digests, len(Apps)*len(procs), len(fig2Policies), K,
			func(g, pol, t int) string {
				return fmt.Sprintf("fig2 %s p=%d %s trial=%d",
					Apps[g/len(procs)], procs[g%len(procs)], fig2Policies[pol], t)
			})
		if err != nil {
			return nil, err
		}
	}
	var rows []Fig2Row
	i := 0
	for _, app := range Apps {
		for _, p := range procs {
			row := Fig2Row{App: app, Procs: p, Trials: K}
			for _, pol := range fig2Policies {
				agg := stats.Aggregate(ms[i : i+K])
				i += K
				if pol == "NoHM" {
					row.NoHM = agg.Mean.ExecTime
					row.NoHMMsgs = agg.Mean.TotalMsgs(false)
					row.NoHMAgg = agg.ExecTime
				} else {
					row.HM = agg.Mean.ExecTime
					row.HMMsgs = agg.Mean.TotalMsgs(false)
					row.HMAgg = agg.ExecTime
				}
			}
			rows = append(rows, row)
		}
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
	if multi {
		fmt.Fprintf(tw, "app\tprocs\tNoHM (s)\tHM (s)\tspeedup\tNoHM msgs\tHM msgs\tNoHM range (s)\tHM range (s)\n")
	} else {
		fmt.Fprintf(tw, "app\tprocs\tNoHM (s)\tHM (s)\tspeedup\tNoHM msgs\tHM msgs\n")
	}
	for _, r := range rows {
		speedup := ratioStr(float64(r.NoHM), float64(r.HM), "%.2fx")
		if multi {
			fmt.Fprintf(tw, "%s\t%d\t%.3f\t%.3f\t%s\t%d\t%d\t%s\t%s\n",
				r.App, r.Procs, r.NoHM.Seconds(), r.HM.Seconds(), speedup, r.NoHMMsgs, r.HMMsgs,
				timeRange(r.NoHMAgg.Min, r.NoHMAgg.Max), timeRange(r.HMAgg.Min, r.HMAgg.Max))
		} else {
			fmt.Fprintf(tw, "%s\t%d\t%.3f\t%.3f\t%s\t%d\t%d\n",
				r.App, r.Procs, r.NoHM.Seconds(), r.HM.Seconds(), speedup, r.NoHMMsgs, r.HMMsgs)
		}
	}
	tw.Flush()
}
