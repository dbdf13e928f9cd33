package bench

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/apps"

	dsm "repro"
)

// Fig3Row is one point of Fig. 3: the improvement of the adaptive
// threshold (AT) over the fixed threshold FT2 — the threshold the
// authors' previous system used — in execution time, message number and
// network traffic, at one problem size on eight nodes. With Trials > 1
// the percentages are means over per-trial paired comparisons (FT2 and
// AT see the same seeded input in each trial) and the *Rng fields carry
// the min/max spread.
type Fig3Row struct {
	App           string
	Size          int
	TimePct       float64 // reduced execution time, %
	MsgPct        float64 // reduced message number, %
	TrafficPct    float64 // reduced network traffic, %
	Trials        int
	TimePctRng    [2]float64 // min, max over trials
	MsgPctRng     [2]float64
	TrafficPctRng [2]float64
}

// fig3Policies: the baseline first, then the paper's contribution.
var fig3Policies = []string{"FT2", "AT"}

// Fig3 reproduces Figure 3: AT's improvement over FT2 against problem
// size for ASP and SOR, on eight cluster nodes (§5.1). The paper scales
// the ASP graph and the SOR matrix over {128, 256, 512, 1024}.
func Fig3(sizesASP, sizesSOR []int, sorIters, nodes int, o RunOpts) ([]Fig3Row, error) {
	if len(sizesASP) == 0 {
		sizesASP = []int{128, 256, 512, 1024}
	}
	if len(sizesSOR) == 0 {
		sizesSOR = []int{128, 256, 512, 1024}
	}
	if nodes == 0 {
		nodes = 8
	}
	if sorIters == 0 {
		sorIters = 12
	}
	var rows []Fig3Row
	for _, size := range sizesASP {
		rows = append(rows, Fig3Row{App: "ASP", Size: size, Trials: o.trials()})
	}
	for _, size := range sizesSOR {
		rows = append(rows, Fig3Row{App: "SOR", Size: size, Trials: o.trials()})
	}
	var cells []cell
	for _, r := range rows {
		for _, pol := range fig3Policies {
			cells = append(cells, cell{
				label: fmt.Sprintf("fig3 %s n=%d %s", r.App, r.Size, pol),
				key:   fmt.Sprintf("%s n=%d", r.App, r.Size),
				run: o.runner(apps.Spec{App: strings.ToLower(r.App), N: r.Size, Iters: sorIters},
					dsm.Config{Nodes: nodes, Policy: pol}),
			})
		}
	}
	outs, err := o.sweep(cells)
	if err != nil {
		return nil, err
	}
	for i := range rows {
		base, at := outs[2*i].trials, outs[2*i+1].trials // fig3Policies order
		var timeP, msgP, trafP []float64
		for t := range base {
			bs, bm, bb := metricsTriple(base[t])
			as, am, ab := metricsTriple(at[t])
			timeP = append(timeP, pct(bs, as))
			msgP = append(msgP, pct(float64(bm), float64(am)))
			trafP = append(trafP, pct(float64(bb), float64(ab)))
		}
		r := &rows[i]
		r.TimePct, r.TimePctRng = meanRange(timeP)
		r.MsgPct, r.MsgPctRng = meanRange(msgP)
		r.TrafficPct, r.TrafficPctRng = meanRange(trafP)
	}
	return rows, nil
}

// meanRange reduces per-trial percentages to mean and [min, max].
func meanRange(vs []float64) (mean float64, rng [2]float64) {
	rng = [2]float64{vs[0], vs[0]}
	var sum float64
	for _, v := range vs {
		sum += v
		if v < rng[0] {
			rng[0] = v
		}
		if v > rng[1] {
			rng[1] = v
		}
	}
	return sum / float64(len(vs)), rng
}

// PrintFig3 renders both panels of Fig. 3.
func PrintFig3(w io.Writer, rows []Fig3Row) {
	fmt.Fprintf(w, "Figure 3 — improvement of AT over FT2 vs problem size (8 nodes)\n\n")
	multi := len(rows) > 0 && rows[0].Trials > 1
	tw := tabw(w)
	tableRow(tw, multi, "app\tsize\texec time\tmessage number\tnetwork traffic", "time range")
	for _, r := range rows {
		tableRow(tw, multi,
			fmt.Sprintf("%s\t%d\t%+.1f%%\t%+.1f%%\t%+.1f%%", r.App, r.Size, r.TimePct, r.MsgPct, r.TrafficPct),
			fmt.Sprintf("%+.1f..%+.1f%%", r.TimePctRng[0], r.TimePctRng[1]))
	}
	tw.Flush()
}
