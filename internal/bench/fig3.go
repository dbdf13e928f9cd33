package bench

import (
	"fmt"
	"io"

	"repro/internal/apps"
	"repro/internal/experiment"

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

// fig3Point is one (app, size) grid point.
type fig3Point struct {
	App  string
	Size int
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
	var points []fig3Point
	for _, size := range sizesASP {
		points = append(points, fig3Point{"ASP", size})
	}
	for _, size := range sizesSOR {
		points = append(points, fig3Point{"SOR", size})
	}
	K := o.trials()
	var specs []experiment.Spec
	var digests []uint64 // sized before the pool runs; slots are per-spec
	for _, pt := range points {
		for _, pol := range fig3Policies {
			for t := 0; t < K; t++ {
				seed := experiment.TrialSeed(t)
				idx := len(specs)
				specs = append(specs, experiment.Spec{
					Label: trialLabel(fmt.Sprintf("fig3 %s n=%d %s", pt.App, pt.Size, pol), K, t),
					Run: func() (dsm.Metrics, error) {
						s := Sizes{ASPN: pt.Size, SORN: pt.Size, SORIters: sorIters}
						res, err := runApp(pt.App, s, apps.Options{Config: dsm.Config{Nodes: nodes, Policy: pol}, Seed: seed, Check: o.Check})
						digests[idx] = res.Digest
						return res.Metrics, err
					},
				})
			}
		}
	}
	digests = make([]uint64, len(specs))
	ms, err := o.run(specs)
	if err != nil {
		return nil, err
	}
	if o.Check {
		err := checkDigests(digests, len(points), len(fig3Policies), K,
			func(g, pol, t int) string {
				return fmt.Sprintf("fig3 %s n=%d %s trial=%d",
					points[g].App, points[g].Size, fig3Policies[pol], t)
			})
		if err != nil {
			return nil, err
		}
	}
	rows := make([]Fig3Row, len(points))
	NP := len(fig3Policies)
	for pi, pt := range points {
		base := ms[pi*NP*K : pi*NP*K+K]   // FT2 trials (fig3Policies[0])
		at := ms[pi*NP*K+K : pi*NP*K+2*K] // AT trials (fig3Policies[1])
		row := Fig3Row{App: pt.App, Size: pt.Size, Trials: K}
		var timeP, msgP, trafP []float64
		for t := 0; t < K; t++ {
			bs, bm, bb := metricsTriple(base[t])
			as, am, ab := metricsTriple(at[t])
			timeP = append(timeP, pct(bs, as))
			msgP = append(msgP, pct(float64(bm), float64(am)))
			trafP = append(trafP, pct(float64(bb), float64(ab)))
		}
		row.TimePct, row.TimePctRng = meanRange(timeP)
		row.MsgPct, row.MsgPctRng = meanRange(msgP)
		row.TrafficPct, row.TrafficPctRng = meanRange(trafP)
		rows[pi] = row
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
	if multi {
		fmt.Fprintf(tw, "app\tsize\texec time\tmessage number\tnetwork traffic\ttime range\n")
	} else {
		fmt.Fprintf(tw, "app\tsize\texec time\tmessage number\tnetwork traffic\n")
	}
	for _, r := range rows {
		if multi {
			fmt.Fprintf(tw, "%s\t%d\t%+.1f%%\t%+.1f%%\t%+.1f%%\t%+.1f..%+.1f%%\n",
				r.App, r.Size, r.TimePct, r.MsgPct, r.TrafficPct, r.TimePctRng[0], r.TimePctRng[1])
		} else {
			fmt.Fprintf(tw, "%s\t%d\t%+.1f%%\t%+.1f%%\t%+.1f%%\n",
				r.App, r.Size, r.TimePct, r.MsgPct, r.TrafficPct)
		}
	}
	tw.Flush()
}
