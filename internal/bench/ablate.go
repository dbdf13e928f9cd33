package bench

import (
	"fmt"
	"io"
	"sync"

	"repro/internal/apps"
	"repro/internal/experiment"
	"repro/internal/stats"

	dsm "repro"
)

// AblationRow is one configuration's outcome in an ablation sweep. With
// Trials > 1 every quantity is the per-trial mean and TimeAgg carries
// the execution-time spread.
type AblationRow struct {
	Study    string
	Variant  string
	Workload string
	Time     dsm.Time
	Msgs     int64
	Traffic  int64
	Migr     int64
	Redir    int64
	Retries  int64
	Trials   int
	TimeAgg  stats.TimeAgg
}

// ablSpec is one ablation grid point: identity plus a seedable run.
type ablSpec struct {
	study, variant, workload string
	run                      func(seed uint64) (apps.Result, error)
}

// runAblation flattens the grid points (× trials) into experiment specs,
// executes them on the worker pool, and reassembles one row per point in
// declaration order.
func runAblation(o RunOpts, points []ablSpec) ([]AblationRow, error) {
	K := o.trials()
	var specs []experiment.Spec
	for _, pt := range points {
		for t := 0; t < K; t++ {
			seed := experiment.TrialSeed(t)
			specs = append(specs, experiment.Spec{
				Label: trialLabel(fmt.Sprintf("%s %s %s", pt.study, pt.variant, pt.workload), K, t),
				Run: func() (dsm.Metrics, error) {
					res, err := pt.run(seed)
					return res.Metrics, err
				},
			})
		}
	}
	ms, err := o.run(specs)
	if err != nil {
		return nil, err
	}
	rows := make([]AblationRow, len(points))
	for i, pt := range points {
		agg := stats.Aggregate(ms[i*K : (i+1)*K])
		m := agg.Mean
		rows[i] = AblationRow{
			Study: pt.study, Variant: pt.variant, Workload: pt.workload,
			Time: m.ExecTime, Msgs: m.TotalMsgs(false), Traffic: m.TotalBytes(false),
			Migr: m.Migrations, Redir: m.Breakdown().Redir, Retries: m.Retries,
			Trials: K, TimeAgg: agg.ExecTime,
		}
	}
	return rows, nil
}

// digestTracker enforces result-independence across an ablation's
// variant axis under RunOpts.Check: runs that differ only in the swept
// variant (policy, locator, threshold) over the same seeded input must
// leave byte-identical final shared memory. Only workloads with
// deterministic results participate (ASP, SOR — not the synthetic
// benchmark, whose racing workers overshoot the target by a
// timing-dependent amount). Records are keyed by input seed because the
// pool completes runs out of order; check compares in declaration order
// so failures are reported deterministically.
type digestTracker struct {
	study, workload string
	variants        []string
	mu              sync.Mutex
	digests         map[string]map[uint64]uint64 // variant → seed → digest
}

func newDigestTracker(study, workload string, variants []string) *digestTracker {
	return &digestTracker{study: study, workload: workload, variants: variants,
		digests: make(map[string]map[uint64]uint64)}
}

func (d *digestTracker) record(variant string, seed, digest uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	m := d.digests[variant]
	if m == nil {
		m = make(map[uint64]uint64)
		d.digests[variant] = m
	}
	m[seed] = digest
}

// check compares the recorded digests across variants for each of the K
// trial seeds. It runs only after every run succeeded, so a declared
// variant with no record is a wiring bug (a renamed variant string, a
// dropped record call) that would otherwise make the gate vacuous — it
// errors rather than being skipped.
func (d *digestTracker) check(K int) error {
	for t := 0; t < K; t++ {
		seed := experiment.TrialSeed(t)
		var base uint64
		baseVar := ""
		for _, v := range d.variants {
			dg, ok := d.digests[v][seed]
			if !ok {
				return fmt.Errorf("bench: %s ablation: variant %q recorded no digest for %s trial %d (digestTracker wiring)",
					d.study, v, d.workload, t)
			}
			if baseVar == "" {
				base, baseVar = dg, v
				continue
			}
			if dg != base {
				return fmt.Errorf("bench: %s ablation: variant changed results on %s trial %d: %s digest %#x != %s digest %#x",
					d.study, d.workload, t, v, dg, baseVar, base)
			}
		}
	}
	return nil
}

// checkedRows finishes an ablation that tracked digests: the rows are
// valid only if every variant left identical memory.
func checkedRows(o RunOpts, rows []AblationRow, err error, dt *digestTracker) ([]AblationRow, error) {
	if err != nil {
		return nil, err
	}
	if o.Check {
		if err := dt.check(o.trials()); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// AblateLocator compares the three home-location mechanisms of §3.2
// (forwarding pointer, manager, broadcast) on the synthetic benchmark
// (migration-heavy) and on ASP (migration-then-stable).
func AblateLocator(o RunOpts) ([]AblationRow, error) {
	locs := []string{"fwdptr", "manager", "broadcast"}
	dt := newDigestTracker("locator", "ASP(128)", locs)
	var points []ablSpec
	for _, loc := range locs {
		points = append(points,
			ablSpec{"locator", loc, "synthetic(r=8)", func(seed uint64) (apps.Result, error) {
				return apps.RunSynthetic(apps.SyntheticOpts{
					Repetition: 8, TotalUpdates: 1024, Workers: 8,
				}, apps.Options{Config: dsm.Config{Nodes: 9, Policy: "AT", Locator: loc}, Seed: seed, Check: o.Check})
			}},
			ablSpec{"locator", loc, "ASP(128)", func(seed uint64) (apps.Result, error) {
				res, err := apps.RunASP(128, apps.Options{Config: dsm.Config{Nodes: 8, Policy: "AT", Locator: loc}, Seed: seed, Check: o.Check})
				if o.Check && err == nil {
					dt.record(loc, seed, res.Digest)
				}
				return res, err
			}},
		)
	}
	rows, err := runAblation(o, points)
	return checkedRows(o, rows, err, dt)
}

// AblateLambda sweeps the feedback coefficient λ of Eq. (2) on the
// transient synthetic pattern (§4.2 fixes λ=1; this quantifies the
// choice).
func AblateLambda(o RunOpts) ([]AblationRow, error) {
	var points []ablSpec
	for _, lam := range []float64{0.25, 0.5, 1, 2, 4} {
		points = append(points, ablSpec{
			"lambda", fmt.Sprintf("λ=%.2f", lam), "synthetic(r=2)",
			func(seed uint64) (apps.Result, error) {
				return apps.RunSynthetic(apps.SyntheticOpts{
					Repetition: 2, TotalUpdates: 1024, Workers: 8,
				}, apps.Options{Config: dsm.Config{Nodes: 9, Policy: "AT", Lambda: lam}, Seed: seed, Check: o.Check})
			}})
	}
	return runAblation(o, points)
}

// AblateTInit sweeps the initial threshold (§4.2 argues for 1 to speed up
// initial data relocation) on ASP, where initial relocation dominates.
func AblateTInit(o RunOpts) ([]AblationRow, error) {
	var variants []string
	for _, ti := range []float64{1, 2, 4, 8} {
		variants = append(variants, fmt.Sprintf("T_init=%.0f", ti))
	}
	dt := newDigestTracker("tinit", "ASP(128)", variants)
	var points []ablSpec
	for i, ti := range []float64{1, 2, 4, 8} {
		variant := variants[i]
		points = append(points, ablSpec{
			"tinit", variant, "ASP(128)",
			func(seed uint64) (apps.Result, error) {
				res, err := apps.RunASP(128, apps.Options{Config: dsm.Config{Nodes: 8, Policy: "AT", TInit: ti}, Seed: seed, Check: o.Check})
				if o.Check && err == nil {
					dt.record(variant, seed, res.Digest)
				}
				return res, err
			}})
	}
	rows, err := runAblation(o, points)
	return checkedRows(o, rows, err, dt)
}

// AblateRelated compares the related-work policies of §2 (JUMP
// migrating-home, Jackal lazy flushing, Jiajia barrier migration)
// against NoHM and AT, quantifying the paper's qualitative claims.
func AblateRelated(o RunOpts) ([]AblationRow, error) {
	pols := []string{"NoHM", "JUMP", "Jackal5", "Jiajia", "AT"}
	dt := newDigestTracker("related", "SOR(128)", pols)
	var points []ablSpec
	for _, pol := range pols {
		points = append(points,
			ablSpec{"related", pol, "synthetic(r=4)", func(seed uint64) (apps.Result, error) {
				return apps.RunSynthetic(apps.SyntheticOpts{
					Repetition: 4, TotalUpdates: 1024, Workers: 8,
				}, apps.Options{Config: dsm.Config{Nodes: 9, Policy: pol}, Seed: seed, Check: o.Check})
			}},
			ablSpec{"related", pol, "SOR(128)", func(seed uint64) (apps.Result, error) {
				res, err := apps.RunSOR(128, 8, apps.Options{Config: dsm.Config{Nodes: 8, Policy: pol}, Seed: seed, Check: o.Check})
				if o.Check && err == nil {
					dt.record(pol, seed, res.Digest)
				}
				return res, err
			}},
		)
	}
	rows, err := runAblation(o, points)
	return checkedRows(o, rows, err, dt)
}

// AblatePiggyback isolates the §5.2 observation that diff piggybacking
// makes NM competitive at moderate repetitions.
func AblatePiggyback(o RunOpts) ([]AblationRow, error) {
	var points []ablSpec
	for _, pig := range []bool{true, false} {
		variant := "piggyback=on"
		if !pig {
			variant = "piggyback=off"
		}
		noPig := !pig
		points = append(points, ablSpec{
			"piggyback", variant, "synthetic(r=8,NM)",
			func(seed uint64) (apps.Result, error) {
				return apps.RunSynthetic(apps.SyntheticOpts{
					Repetition: 8, TotalUpdates: 1024, Workers: 8,
				}, apps.Options{Config: dsm.Config{Nodes: 9, Policy: "NM", NoPiggyback: noPig}, Seed: seed, Check: o.Check})
			}})
	}
	return runAblation(o, points)
}

// AblatePathCompression measures the forwarding-chain compression
// extension (beyond the paper; §6 future work on reducing redirection
// overhead) on the chain-heavy FT1 transient workload.
func AblatePathCompression(o RunOpts) ([]AblationRow, error) {
	var points []ablSpec
	for _, on := range []bool{false, true} {
		variant := "compress=off"
		if on {
			variant = "compress=on"
		}
		points = append(points, ablSpec{
			"pathcompress", variant, "synthetic(r=2,FT1)",
			func(seed uint64) (apps.Result, error) {
				return apps.RunSynthetic(apps.SyntheticOpts{
					Repetition: 2, TotalUpdates: 1024, Workers: 8,
				}, apps.Options{Config: dsm.Config{Nodes: 9, Policy: "FT1", PathCompress: on}, Seed: seed, Check: o.Check})
			}})
	}
	return runAblation(o, points)
}

// PrintAblation renders an ablation result set.
func PrintAblation(w io.Writer, title string, rows []AblationRow) {
	fmt.Fprintf(w, "Ablation — %s\n\n", title)
	multi := len(rows) > 0 && rows[0].Trials > 1
	tw := tabw(w)
	if multi {
		fmt.Fprintf(tw, "variant\tworkload\ttime (s)\tmsgs\ttraffic (B)\tmigrations\tredir\tretries\ttime range (s)\n")
	} else {
		fmt.Fprintf(tw, "variant\tworkload\ttime (s)\tmsgs\ttraffic (B)\tmigrations\tredir\tretries\n")
	}
	for _, r := range rows {
		if multi {
			fmt.Fprintf(tw, "%s\t%s\t%.3f\t%d\t%d\t%d\t%d\t%d\t%s\n",
				r.Variant, r.Workload, r.Time.Seconds(), r.Msgs, r.Traffic, r.Migr, r.Redir, r.Retries,
				timeRange(r.TimeAgg.Min, r.TimeAgg.Max))
		} else {
			fmt.Fprintf(tw, "%s\t%s\t%.3f\t%d\t%d\t%d\t%d\t%d\n",
				r.Variant, r.Workload, r.Time.Seconds(), r.Msgs, r.Traffic, r.Migr, r.Redir, r.Retries)
		}
	}
	tw.Flush()
}
