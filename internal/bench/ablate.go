package bench

import (
	"fmt"
	"io"

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

// workload is one input of an ablation: its name in the rows, its program
// and cluster size, and a trace for its NoHM runs (or nil). Its name is
// its input key (cell.key), except for the synthetic benchmark: its racing
// workers overshoot the target by a timing-dependent amount.
type workload struct {
	name  string
	spec  apps.Spec
	nodes int
	trace *dsm.Trace
}

// variant is one setting a study compares: its name in the rows and the
// configuration it runs every workload under (Nodes and Trace aside).
type variant struct {
	name string
	cfg  dsm.Config
}

// ablate runs every study: each workload under each variant, variant-major,
// each cell's outcome folded into its row in declaration order.
func ablate(o RunOpts, study string, vs []variant, wls ...workload) ([]AblationRow, error) {
	var cells []cell
	var rows []AblationRow
	for _, v := range vs {
		for _, w := range wls {
			cfg := v.cfg
			cfg.Nodes = w.nodes
			if cfg.Policy == "NoHM" {
				cfg.Trace = w.trace
			}
			c := cell{label: study + " " + v.name + " " + w.name, key: w.name, run: o.runner(w.spec, cfg)}
			if w.spec.App == "synthetic" {
				c.key = ""
			}
			cells = append(cells, c)
			rows = append(rows, AblationRow{Study: study, Variant: v.name, Workload: w.name})
		}
	}
	outs, err := o.sweep(cells)
	if err != nil {
		return nil, err
	}
	for i, out := range outs {
		m, r := out.Mean, &rows[i]
		r.Time, r.Msgs, r.Traffic = m.ExecTime, m.TotalMsgs(false), m.TotalBytes(false)
		r.Migr, r.Redir, r.Retries = m.Migrations, m.Breakdown().Redir, m.Retries
		r.Trials, r.TimeAgg = o.trials(), out.ExecTime
	}
	return rows, nil
}

// policies is one variant per migration policy name.
func policies(names ...string) []variant {
	vs := make([]variant, len(names))
	for i, pol := range names {
		vs[i] = variant{pol, dsm.Config{Policy: pol}}
	}
	return vs
}

// The ablations' workloads: the synthetic benchmark at repetition r (eight
// workers on nodes 1..8 of nine, 1024 updates), and the two applications
// whose final memory is deterministic and therefore comparable across a
// study's variants, on eight nodes.
func synthetic(r int) workload {
	return workload{name: fmt.Sprintf("synthetic(r=%d)", r), nodes: 9,
		spec: apps.Spec{App: "synthetic", Rep: r, Updates: 1024, Workers: 8}}
}

var (
	asp128 = workload{name: "ASP(128)", spec: apps.Spec{App: "asp", N: 128}, nodes: 8}
	sor128 = workload{name: "SOR(128)", spec: apps.Spec{App: "sor", N: 128, Iters: 8}, nodes: 8}
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
	rows, err := ablate(RunOpts{Check: true}, "whatif", policies(Policies()...),
		workload{name: spec.App, spec: spec, nodes: nodes, trace: tr})
	return rows, tr, err
}

// AblatePiggyback isolates the §5.2 observation that diff piggybacking
// makes NM competitive at moderate repetitions.
func AblatePiggyback(o RunOpts) ([]AblationRow, error) {
	w := workload{name: "synthetic(r=8,NM)", spec: synthetic(8).spec, nodes: 9}
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
	w := workload{name: "synthetic(r=2,FT1)", spec: synthetic(2).spec, nodes: 9}
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
