// Package hockney implements Hockney's point-to-point communication model
// [Hockney, "A Framework for Benchmark Performance Analysis", 1992], used
// by the paper (Appendix A) both to model message time and to derive the
// home-access coefficient α of the adaptive home-migration protocol.
//
// The model characterizes the time of a point-to-point message of m bytes
// as the linear function
//
//	t(m) = t0 + m/r∞            (Eq. 4 in the paper)
//
// where t0 is the start-up time and r∞ the asymptotic bandwidth. The
// half-peak length m½ — the message length achieving half the asymptotic
// bandwidth — satisfies m½ = t0·r∞ (Eq. 8).
package hockney

import (
	"fmt"

	"repro/internal/sim"
)

// Model holds the two Hockney parameters.
type Model struct {
	// T0 is the start-up (latency) term.
	T0 sim.Time
	// BytesPerSec is the asymptotic bandwidth r∞ in bytes/second.
	BytesPerSec float64
}

// FastEthernet returns parameters calibrated to the paper's testbed class:
// a Fast Ethernet switch between 2 GHz Pentium-4 Linux nodes. TCP/IP over
// 100 Mb/s yields ~75 µs one-way start-up and ~11.6 MB/s effective
// bandwidth, giving a half-peak length m½ ≈ 870 bytes — comfortably
// within the "m½ >> 1" regime the α deduction assumes.
func FastEthernet() Model {
	return Model{T0: 75 * sim.Microsecond, BytesPerSec: 11.6e6}
}

// Gigabit returns parameters for a faster interconnect, used by ablation
// experiments to show how α (and hence migration eagerness) shifts when
// communication gets cheaper relative to message count.
func Gigabit() Model {
	return Model{T0: 20 * sim.Microsecond, BytesPerSec: 110e6}
}

// Parse returns the model named s: "fastethernet" (alias "fe") or
// "gigabit" (alias "gbe").
func Parse(s string) (Model, error) {
	switch s {
	case "fastethernet", "fe":
		return FastEthernet(), nil
	case "gigabit", "gbe":
		return Gigabit(), nil
	}
	return Model{}, fmt.Errorf("hockney: unknown network %q", s)
}

// Time returns t(m) = t0 + m/r∞ for an m-byte message.
func (md Model) Time(m int) sim.Time {
	if m < 0 {
		m = 0
	}
	return md.T0 + sim.Time(float64(m)/md.BytesPerSec*1e9)
}

// HalfPeak returns m½ = t0·r∞ in bytes (Eq. 8): the message length at
// which achieved bandwidth is half the asymptotic bandwidth.
func (md Model) HalfPeak() float64 {
	return md.T0.Seconds() * md.BytesPerSec
}

// Alpha returns the home-access coefficient α for an object of o bytes
// whose diffs average d bytes (Appendix A, Eq. 5–7):
//
//	α = (t(o) + t(d)) / (2·t(1))
//	  = (2·m½ + o + d) / (2·m½ + 2)
//
// α is the overhead ratio of one eliminated pair of (object fault-in +
// diff propagation) to one home redirection (a unit-sized message
// round-trip). It weighs the positive feedback of exclusive home writes
// against the negative feedback of redirected requests.
func (md Model) Alpha(o, d int) float64 {
	if o < 0 {
		o = 0
	}
	if d < 0 {
		d = 0
	}
	mHalf := md.HalfPeak()
	return (2*mHalf + float64(o) + float64(d)) / (2*mHalf + 2)
}

// AlphaExact returns α computed directly from the time model rather than
// the simplified closed form: (t(o)+t(d)) / (2·t(1)). The two agree
// exactly because t is linear; both are provided so tests can assert the
// paper's algebra (Eq. 5 ⇒ Eq. 7). Times are evaluated in unquantized
// seconds — Time() rounds to whole nanoseconds, which would perturb the
// identity.
func (md Model) AlphaExact(o, d int) float64 {
	if o < 0 {
		o = 0
	}
	if d < 0 {
		d = 0
	}
	ts := func(m int) float64 { return md.T0.Seconds() + float64(m)/md.BytesPerSec }
	return (ts(o) + ts(d)) / (2 * ts(1))
}

func (md Model) String() string {
	return fmt.Sprintf("hockney{t0=%v, r∞=%.1fMB/s, m½=%.0fB}",
		md.T0, md.BytesPerSec/1e6, md.HalfPeak())
}
