package bench

import (
	"fmt"
	"io"
	"slices"

	"repro/internal/apps"
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

// ablate runs a study's grid — each workload under each variant — and
// folds each cell into its row, variant-major.
func ablate(o RunOpts, study string, vs []variant, ws ...workload) ([]AblationRow, error) {
	t, err := o.sweep(vs, ws, func(v, w int) string { return study + " " + vs[v].name + " " + ws[w].name })
	if err != nil {
		return nil, err
	}
	var rows []AblationRow
	for v := range vs {
		for w := range ws {
			a := t.agg(v, w)
			m := a.Mean
			rows = append(rows, AblationRow{Study: study, Variant: vs[v].name, Workload: ws[w].name,
				Time: m.ExecTime, Msgs: m.TotalMsgs(false), Traffic: m.TotalBytes(false),
				Migr: m.Migrations, Redir: m.Breakdown().Redir, Retries: m.Retries,
				Trials: a.N, TimeAgg: a.ExecTime})
		}
	}
	return rows, nil
}

// The ablations' workloads: the synthetic benchmark at repetition r (eight
// workers on nodes 1..8 of nine, 1024 updates), and the two applications
// whose final memory is deterministic and therefore comparable across a
// study's variants, on eight nodes.
func synthetic(r int) workload {
	return application(fmt.Sprintf("synthetic(r=%d)", r), apps.Spec{App: "synthetic", Rep: r, Updates: 1024, Workers: 8}, 9)
}

var (
	asp128 = application("ASP(128)", apps.Spec{App: "asp", N: 128}, 8)
	sor128 = application("SOR(128)", apps.Spec{App: "sor", N: 128, Iters: 8}, 8)
)

// AblateLocator compares the three home-location mechanisms of §3.2
// (forwarding pointer, manager, broadcast) on the synthetic benchmark
// (migration-heavy) and on ASP (migration-then-stable).
func AblateLocator(o RunOpts) ([]AblationRow, error) {
	var vs []variant
	for _, loc := range Locators {
		vs = append(vs, variant{loc, dsm.Config{Policy: "AT", Locator: loc}})
	}
	return ablate(o, "locator", vs, synthetic(8), asp128)
}

// AblateLambda sweeps the feedback coefficient λ of Eq. (2) on the
// transient synthetic pattern (§4.2 fixes λ=1; this quantifies the
// choice).
func AblateLambda(o RunOpts) ([]AblationRow, error) {
	var vs []variant
	for _, lam := range []float64{0.25, 0.5, 1, 2, 4} {
		vs = append(vs, variant{fmt.Sprintf("λ=%.2f", lam), dsm.Config{Policy: "AT", Lambda: lam}})
	}
	return ablate(o, "lambda", vs, synthetic(2))
}

// AblateTInit sweeps the initial threshold (§4.2 argues for 1 to speed up
// initial data relocation) on ASP, where initial relocation dominates.
func AblateTInit(o RunOpts) ([]AblationRow, error) {
	var vs []variant
	for _, ti := range []float64{1, 2, 4, 8} {
		vs = append(vs, variant{fmt.Sprintf("T_init=%.0f", ti), dsm.Config{Policy: "AT", TInit: ti}})
	}
	return ablate(o, "tinit", vs, asp128)
}

// AblateRelated compares the related-work policies of §2 (JUMP
// migrating-home, Jackal lazy flushing, Jiajia barrier migration)
// against NoHM and AT, quantifying the paper's qualitative claims.
func AblateRelated(o RunOpts) ([]AblationRow, error) {
	return ablate(o, "related", policies("NoHM", "JUMP", "Jackal5", "Jiajia", "AT"), synthetic(4), sor128)
}

// WhatIf runs spec on nodes under every builtin policy, checked, and
// returns one row per policy and the NoHM run's trace: what each policy
// costs on this program, measured by the protocol itself.
func WhatIf(spec apps.Spec, nodes int) ([]AblationRow, *dsm.Trace, error) {
	tr := dsm.NewTrace()
	vs := policies(Policies()...)
	vs[slices.IndexFunc(vs, func(v variant) bool { return v.name == "NoHM" })].cfg.Observers = []dsm.Observer{tr}
	rows, err := ablate(RunOpts{Check: true}, "whatif", vs, application(spec.App, spec, nodes))
	return rows, tr, err
}

// AblatePiggyback isolates the §5.2 observation that diff piggybacking
// makes NM competitive at moderate repetitions.
func AblatePiggyback(o RunOpts) ([]AblationRow, error) {
	w := synthetic(8)
	w.name = "synthetic(r=8,NM)"
	var vs []variant
	for _, pig := range []string{"on", "off"} {
		vs = append(vs, variant{"piggyback=" + pig, dsm.Config{Policy: "NM", NoPiggyback: pig == "off"}})
	}
	return ablate(o, "piggyback", vs, w)
}

// AblatePathCompression measures the forwarding-chain compression
// extension (beyond the paper; §6 future work on reducing redirection
// overhead) on the chain-heavy FT1 transient workload.
func AblatePathCompression(o RunOpts) ([]AblationRow, error) {
	w := synthetic(2)
	w.name = "synthetic(r=2,FT1)"
	var vs []variant
	for _, compress := range []string{"off", "on"} {
		vs = append(vs, variant{"compress=" + compress, dsm.Config{Policy: "FT1", PathCompress: compress == "on"}})
	}
	return ablate(o, "pathcompress", vs, w)
}

// PrintAblation renders an ablation result set.
func PrintAblation(w io.Writer, title string, rows []AblationRow) {
	fmt.Fprintf(w, "Ablation — %s\n\n", title)
	multi := len(rows) > 0 && rows[0].Trials > 1
	tw := tabw(w)
	tableRow(tw, multi, "variant\tworkload\ttime (s)\tmsgs\ttraffic (B)\tmigrations\tredir\tretries", "time range (s)")
	for _, r := range rows {
		tableRow(tw, multi,
			fmt.Sprintf("%s\t%s\t%.3f\t%d\t%d\t%d\t%d\t%d",
				r.Variant, r.Workload, r.Time.Seconds(), r.Msgs, r.Traffic, r.Migr, r.Redir, r.Retries),
			timeRange(r.TimeAgg.Min, r.TimeAgg.Max))
	}
	tw.Flush()
}
