package bench

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/apps"
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
	var ws []workload
	add := func(app string, sizes []int) {
		for _, size := range sizes {
			rows = append(rows, Fig3Row{App: app, Size: size, Trials: o.trials()})
			ws = append(ws, application(fmt.Sprintf("%s n=%d", app, size), apps.Spec{App: strings.ToLower(app), N: size, Iters: sorIters}, nodes))
		}
	}
	add("ASP", sizesASP)
	add("SOR", sizesSOR)
	// The baseline first, then the paper's contribution.
	vs := policies("FT2", "AT")
	t, err := o.sweep(vs, ws, figLabel("fig3", vs, ws))
	if err != nil {
		return nil, err
	}
	for i := range rows {
		base, at := t.at(0, i), t.at(1, i)
		var timeP, msgP, trafP []float64
		for tr := range base {
			b, a := &base[tr].result.Metrics, &at[tr].result.Metrics
			timeP = append(timeP, pct(b.ExecTime.Seconds(), a.ExecTime.Seconds()))
			msgP = append(msgP, pct(float64(b.TotalMsgs(false)), float64(a.TotalMsgs(false))))
			trafP = append(trafP, pct(float64(b.TotalBytes(false)), float64(a.TotalBytes(false))))
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
