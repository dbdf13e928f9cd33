// dsmcal prints the Hockney communication model calibration and the
// home-access coefficient α deduction of the paper's Appendix A: the
// t(m) curve, the half-peak length m½, and α as a function of object and
// diff size for both network models. With -json it emits the same
// calibration as a machine-readable artifact.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"repro/internal/hockney"
)

var (
	calMsgBytes = []int{1, 64, 256, 870, 1024, 4096, 16384, 65536}
	calObjBytes = []int{64, 256, 1024, 4096, 16384}
)

// calReport is the -json artifact: the t(m) curve and the α table.
type calReport struct {
	Network  string     `json:"network"`
	Model    string     `json:"model"`
	HalfPeak float64    `json:"half_peak_bytes"`
	Curve    []calPoint `json:"curve"`
	Alpha    []calAlpha `json:"alpha"`
}

type calPoint struct {
	Bytes       int     `json:"bytes"`
	TimeSeconds float64 `json:"time_s"`
	BandwidthMB float64 `json:"bandwidth_mb_s"`
}

type calAlpha struct {
	ObjectBytes int     `json:"object_bytes"`
	DiffEighth  float64 `json:"alpha_diff_o8"`
	DiffHalf    float64 `json:"alpha_diff_o2"`
	DiffFull    float64 `json:"alpha_diff_o"`
}

func main() {
	network := flag.String("network", "fastethernet", "network model: fastethernet, gigabit")
	jsonOut := flag.Bool("json", false, "emit the calibration as JSON instead of tables")
	flag.Parse()

	m, err := hockney.Parse(*network)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsmcal:", err)
		os.Exit(1)
	}

	if *jsonOut {
		rep := calReport{Network: *network, Model: fmt.Sprint(m), HalfPeak: m.HalfPeak()}
		for _, b := range calMsgBytes {
			t := m.Time(b)
			rep.Curve = append(rep.Curve, calPoint{
				Bytes: b, TimeSeconds: t.Seconds(), BandwidthMB: float64(b) / t.Seconds() / 1e6,
			})
		}
		for _, o := range calObjBytes {
			rep.Alpha = append(rep.Alpha, calAlpha{
				ObjectBytes: o,
				DiffEighth:  m.Alpha(o, o/8), DiffHalf: m.Alpha(o, o/2), DiffFull: m.Alpha(o, o),
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(os.Stderr, "dsmcal:", err)
			os.Exit(1)
		}
		return
	}

	fmt.Printf("Hockney model (Appendix A): %v\n", m)
	fmt.Printf("t(m) = t0 + m/r∞ ;  m½ = t0·r∞ = %.0f bytes (Eq. 8)\n\n", m.HalfPeak())

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "message bytes\tt(m)\tachieved bandwidth\n")
	for _, b := range calMsgBytes {
		t := m.Time(b)
		bw := float64(b) / t.Seconds() / 1e6
		fmt.Fprintf(tw, "%d\t%v\t%.2f MB/s\n", b, t, bw)
	}
	tw.Flush()

	fmt.Printf("\nα = (2·m½ + o + d) / (2·m½ + 2)   (Eq. 4/7: overhead ratio of one\n")
	fmt.Printf("eliminated fault-in+diff pair to one home redirection)\n\n")
	tw = tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "object bytes\tdiff = o/8\tdiff = o/2\tdiff = o\n")
	for _, o := range calObjBytes {
		fmt.Fprintf(tw, "%d\t%.4f\t%.4f\t%.4f\n",
			o, m.Alpha(o, o/8), m.Alpha(o, o/2), m.Alpha(o, o))
	}
	tw.Flush()
}
