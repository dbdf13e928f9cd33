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

// variant is one row of an ablation: what it is called, the workload it
// runs, and — for a workload whose result is deterministic — the input
// key under which RunOpts.Check compares it with the study's other
// variants on the same workload (see cell.key).
type variant struct {
	name, workload, key string
	run                 func(seed uint64) (apps.Result, error)
}

// ablate sweeps a study's variants as cells and folds each cell's
// outcome into its row, in declaration order.
func ablate(o RunOpts, study string, variants []variant) ([]AblationRow, error) {
	cells := make([]cell, len(variants))
	for i, v := range variants {
		cells[i] = cell{label: study + " " + v.name + " " + v.workload, key: v.key, run: v.run}
	}
	outs, err := o.sweep(cells)
	if err != nil {
		return nil, err
	}
	rows := make([]AblationRow, len(variants))
	for i, v := range variants {
		m := outs[i].Mean
		rows[i] = AblationRow{
			Study: study, Variant: v.name, Workload: v.workload,
			Time: m.ExecTime, Msgs: m.TotalMsgs(false), Traffic: m.TotalBytes(false),
			Migr: m.Migrations, Redir: m.Breakdown().Redir, Retries: m.Retries,
			Trials: o.trials(), TimeAgg: outs[i].ExecTime,
		}
	}
	return rows, nil
}

// The ablations' workloads: the synthetic benchmark at repetition r (eight
// workers on nodes 1..8 of nine, 1024 updates), and the two applications
// whose final memory is deterministic and therefore comparable across a
// study's variants, on eight nodes.
func synthetic(r int) apps.Spec {
	return apps.Spec{App: "synthetic", Rep: r, Updates: 1024, Workers: 8}
}

var (
	asp128 = apps.Spec{App: "asp", N: 128}
	sor128 = apps.Spec{App: "sor", N: 128, Iters: 8}
)

// AblateLocator compares the three home-location mechanisms of §3.2
// (forwarding pointer, manager, broadcast) on the synthetic benchmark
// (migration-heavy) and on ASP (migration-then-stable).
func AblateLocator(o RunOpts) ([]AblationRow, error) {
	var vs []variant
	for _, loc := range Locators {
		vs = append(vs,
			variant{name: loc, workload: "synthetic(r=8)",
				run: o.runner(synthetic(8), dsm.Config{Nodes: 9, Policy: "AT", Locator: loc})},
			variant{name: loc, workload: "ASP(128)", key: "ASP(128)",
				run: o.runner(asp128, dsm.Config{Nodes: 8, Policy: "AT", Locator: loc})},
		)
	}
	return ablate(o, "locator", vs)
}

// AblateLambda sweeps the feedback coefficient λ of Eq. (2) on the
// transient synthetic pattern (§4.2 fixes λ=1; this quantifies the
// choice).
func AblateLambda(o RunOpts) ([]AblationRow, error) {
	var vs []variant
	for _, lam := range []float64{0.25, 0.5, 1, 2, 4} {
		vs = append(vs, variant{name: fmt.Sprintf("λ=%.2f", lam), workload: "synthetic(r=2)",
			run: o.runner(synthetic(2), dsm.Config{Nodes: 9, Policy: "AT", Lambda: lam})})
	}
	return ablate(o, "lambda", vs)
}

// AblateTInit sweeps the initial threshold (§4.2 argues for 1 to speed up
// initial data relocation) on ASP, where initial relocation dominates.
func AblateTInit(o RunOpts) ([]AblationRow, error) {
	var vs []variant
	for _, ti := range []float64{1, 2, 4, 8} {
		vs = append(vs, variant{name: fmt.Sprintf("T_init=%.0f", ti), workload: "ASP(128)", key: "ASP(128)",
			run: o.runner(asp128, dsm.Config{Nodes: 8, Policy: "AT", TInit: ti})})
	}
	return ablate(o, "tinit", vs)
}

// AblateRelated compares the related-work policies of §2 (JUMP
// migrating-home, Jackal lazy flushing, Jiajia barrier migration)
// against NoHM and AT, quantifying the paper's qualitative claims.
func AblateRelated(o RunOpts) ([]AblationRow, error) {
	var vs []variant
	for _, pol := range []string{"NoHM", "JUMP", "Jackal5", "Jiajia", "AT"} {
		vs = append(vs,
			variant{name: pol, workload: "synthetic(r=4)",
				run: o.runner(synthetic(4), dsm.Config{Nodes: 9, Policy: pol})},
			variant{name: pol, workload: "SOR(128)", key: "SOR(128)",
				run: o.runner(sor128, dsm.Config{Nodes: 8, Policy: pol})},
		)
	}
	return ablate(o, "related", vs)
}

// AblatePiggyback isolates the §5.2 observation that diff piggybacking
// makes NM competitive at moderate repetitions.
func AblatePiggyback(o RunOpts) ([]AblationRow, error) {
	var vs []variant
	for _, pig := range []string{"on", "off"} {
		vs = append(vs, variant{name: "piggyback=" + pig, workload: "synthetic(r=8,NM)",
			run: o.runner(synthetic(8), dsm.Config{Nodes: 9, Policy: "NM", NoPiggyback: pig == "off"})})
	}
	return ablate(o, "piggyback", vs)
}

// AblatePathCompression measures the forwarding-chain compression
// extension (beyond the paper; §6 future work on reducing redirection
// overhead) on the chain-heavy FT1 transient workload.
func AblatePathCompression(o RunOpts) ([]AblationRow, error) {
	var vs []variant
	for _, compress := range []string{"off", "on"} {
		vs = append(vs, variant{name: "compress=" + compress, workload: "synthetic(r=2,FT1)",
			run: o.runner(synthetic(2), dsm.Config{Nodes: 9, Policy: "FT1", PathCompress: compress == "on"})})
	}
	return ablate(o, "pathcompress", vs)
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
