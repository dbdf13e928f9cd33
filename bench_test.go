// Benchmarks regenerating the paper's evaluation artifacts, one per
// table/figure (README "Benchmarks"). Each benchmark runs the
// full deterministic simulation and reports the *virtual* quantities the
// paper plots as custom metrics: sim-seconds ("simsec"), protocol
// messages ("msgs"), network bytes ("wirebytes") and home migrations
// ("migrations"). Wall-clock ns/op measures the simulator itself.
//
// Run everything:   go test -bench=. -benchmem
// One figure:       go test -bench=Fig5
package dsm_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/bench"
	"repro/internal/hockney"

	dsm "repro"
)

// report publishes the paper's metrics for the last run of a benchmark.
func report(b *testing.B, m dsm.Metrics) {
	b.ReportMetric(m.ExecTime.Seconds(), "simsec")
	b.ReportMetric(float64(m.TotalMsgs(false)), "msgs")
	b.ReportMetric(float64(m.TotalBytes(false)), "wirebytes")
	b.ReportMetric(float64(m.Migrations), "migrations")
}

// Figure 2 — execution time vs processors, NoHM vs HM(AT), per app.
// Scaled sizes keep each iteration sub-second; dsmbench -full runs the
// paper's sizes (README "Running the figures").

// benchApp runs one application configuration b.N times and reports the
// last run's metrics.
func benchApp(b *testing.B, app apps.Spec, nodes int, policy string) {
	o := apps.Options{Config: dsm.Config{Nodes: nodes, Policy: policy}}
	var m dsm.Metrics
	for i := 0; i < b.N; i++ {
		res, err := apps.Run(app, o)
		if err != nil {
			b.Fatal(err)
		}
		m = res.Metrics
	}
	report(b, m)
}

func BenchmarkFig2(b *testing.B) {
	for _, app := range []string{"ASP", "SOR", "Nbody", "TSP"} {
		for _, procs := range []int{2, 4, 8, 16} {
			for _, pol := range []string{"NoHM", "AT"} {
				b.Run(fmt.Sprintf("%s/p%d/%s", app, procs, pol), func(b *testing.B) {
					benchApp(b, bench.DefaultSizes().Spec(app), procs, pol)
				})
			}
		}
	}
}

// Figure 3 — AT vs FT2 across problem sizes on 8 nodes (ASP and SOR).

func BenchmarkFig3(b *testing.B) {
	for _, app := range []string{"ASP", "SOR"} {
		for _, size := range []int{64, 128, 256} {
			for _, pol := range []string{"FT2", "AT"} {
				b.Run(fmt.Sprintf("%s/n%d/%s", app, size, pol), func(b *testing.B) {
					benchApp(b, apps.Spec{App: strings.ToLower(app), N: size, Iters: 12}, 8, pol)
				})
			}
		}
	}
}

// Figure 5 — the synthetic single-writer benchmark across repetitions
// and protocols (both panels come from the same runs; 5(a) plots time,
// 5(b) plots the message breakdown, reported here as extra metrics).

func BenchmarkFig5(b *testing.B) {
	for _, r := range []int{2, 4, 8, 16} {
		for _, pol := range bench.Fig5Protocols {
			b.Run(fmt.Sprintf("r%d/%s", r, pol), func(b *testing.B) {
				var m dsm.Metrics
				for i := 0; i < b.N; i++ {
					res, err := apps.RunSynthetic(apps.SyntheticOpts{
						Repetition: r, TotalUpdates: 2048, Workers: 8,
					}, apps.Options{Config: dsm.Config{Nodes: 9, Policy: pol}})
					if err != nil {
						b.Fatal(err)
					}
					m = res.Metrics
				}
				report(b, m)
				bd := m.Breakdown()
				b.ReportMetric(float64(bd.Obj), "obj")
				b.ReportMetric(float64(bd.Mig), "mig")
				b.ReportMetric(float64(bd.Diff), "diff")
				b.ReportMetric(float64(bd.Redir), "redir")
			})
		}
	}
}

// Appendix A — the α deduction is pure arithmetic; benchmark it to keep
// the hot-path cost visible (it runs on every exclusive home write).

func BenchmarkAlphaDeduction(b *testing.B) {
	net := hockney.FastEthernet()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += net.Alpha(1024, 128)
	}
	_ = sink
}

// Ablations: locator mechanism, λ, related-work policies, piggybacking.

func BenchmarkAblateLocator(b *testing.B) {
	for _, loc := range []string{"fwdptr", "manager", "broadcast"} {
		b.Run(loc, func(b *testing.B) {
			var m dsm.Metrics
			for i := 0; i < b.N; i++ {
				res, err := apps.RunSynthetic(apps.SyntheticOpts{
					Repetition: 8, TotalUpdates: 1024, Workers: 8,
				}, apps.Options{Config: dsm.Config{Nodes: 9, Policy: "AT", Locator: loc}})
				if err != nil {
					b.Fatal(err)
				}
				m = res.Metrics
			}
			report(b, m)
			b.ReportMetric(float64(m.Retries), "retries")
		})
	}
}

func BenchmarkAblateRelated(b *testing.B) {
	for _, pol := range []string{"NoHM", "JUMP", "Jackal5", "Jiajia", "AT"} {
		b.Run(pol, func(b *testing.B) {
			var m dsm.Metrics
			for i := 0; i < b.N; i++ {
				res, err := apps.RunSOR(128, 8, apps.Options{Config: dsm.Config{Nodes: 8, Policy: pol}})
				if err != nil {
					b.Fatal(err)
				}
				m = res.Metrics
			}
			report(b, m)
		})
	}
}

func BenchmarkAblatePathCompress(b *testing.B) {
	for _, on := range []bool{false, true} {
		name := "off"
		if on {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			var m dsm.Metrics
			for i := 0; i < b.N; i++ {
				res, err := apps.RunSynthetic(apps.SyntheticOpts{
					Repetition: 2, TotalUpdates: 1024, Workers: 8,
				}, apps.Options{Config: dsm.Config{Nodes: 9, Policy: "FT1", PathCompress: on}})
				if err != nil {
					b.Fatal(err)
				}
				m = res.Metrics
			}
			report(b, m)
			b.ReportMetric(float64(m.Breakdown().Redir), "redir")
		})
	}
}

func BenchmarkAblatePiggyback(b *testing.B) {
	for _, off := range []bool{false, true} {
		name := "on"
		if off {
			name = "off"
		}
		b.Run(name, func(b *testing.B) {
			var m dsm.Metrics
			for i := 0; i < b.N; i++ {
				res, err := apps.RunSynthetic(apps.SyntheticOpts{
					Repetition: 8, TotalUpdates: 1024, Workers: 8,
				}, apps.Options{Config: dsm.Config{Nodes: 9, Policy: "NM", NoPiggyback: off}})
				if err != nil {
					b.Fatal(err)
				}
				m = res.Metrics
			}
			report(b, m)
		})
	}
}
