package hockney

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestTimeZeroBytes(t *testing.T) {
	m := FastEthernet()
	if got := m.Time(0); got != m.T0 {
		t.Fatalf("Time(0) = %v, want t0 = %v", got, m.T0)
	}
}

func TestTimeNegativeClamped(t *testing.T) {
	m := FastEthernet()
	if got := m.Time(-5); got != m.T0 {
		t.Fatalf("Time(-5) = %v, want t0", got)
	}
}

func TestTimeLinear(t *testing.T) {
	m := Model{T0: 100 * sim.Microsecond, BytesPerSec: 1e6} // 1 B/µs
	// 1000 bytes at 1 MB/s = 1 ms transfer + 100 µs startup.
	want := 100*sim.Microsecond + sim.Millisecond
	if got := m.Time(1000); got != want {
		t.Fatalf("Time(1000) = %v, want %v", got, want)
	}
}

func TestHalfPeakDefinition(t *testing.T) {
	// At m = m½ the achieved bandwidth m/t(m) must be r∞/2.
	m := FastEthernet()
	mh := m.HalfPeak()
	tAt := m.Time(int(math.Round(mh))).Seconds()
	achieved := mh / tAt
	if rel := math.Abs(achieved-m.BytesPerSec/2) / m.BytesPerSec; rel > 0.01 {
		t.Fatalf("bandwidth at m½ = %.3g, want %.3g", achieved, m.BytesPerSec/2)
	}
}

func TestFastEthernetHalfPeakRegime(t *testing.T) {
	// The α deduction assumes m½ >> 1; the calibrated testbed must honor it.
	mh := FastEthernet().HalfPeak()
	if mh < 100 || mh > 100000 {
		t.Fatalf("m½ = %.0f bytes, outside the plausible Fast-Ethernet range", mh)
	}
}

func TestAlphaMatchesExactForm(t *testing.T) {
	// Eq. 7 (closed form) must equal Eq. 5 (ratio of times): the paper's
	// algebra, verified numerically over a grid.
	m := FastEthernet()
	for _, o := range []int{0, 1, 64, 512, 4096, 65536} {
		for _, d := range []int{0, 1, 32, 256, 2048} {
			a, b := m.Alpha(o, d), m.AlphaExact(o, d)
			if math.Abs(a-b) > 1e-9 {
				t.Fatalf("Alpha(%d,%d) = %v, exact = %v", o, d, a, b)
			}
		}
	}
}

func TestAlphaUnitMessage(t *testing.T) {
	// For o = d = 1 the eliminated pair costs exactly one redirection
	// round-trip: α must be exactly 1.
	m := FastEthernet()
	if a := m.Alpha(1, 1); math.Abs(a-1) > 1e-12 {
		t.Fatalf("Alpha(1,1) = %v, want 1", a)
	}
}

func TestAlphaGrowsWithObjectSize(t *testing.T) {
	m := FastEthernet()
	prev := 0.0
	for _, o := range []int{8, 64, 512, 4096, 32768} {
		a := m.Alpha(o, o/2)
		if a <= prev {
			t.Fatalf("α not increasing: Alpha(%d) = %v after %v", o, a, prev)
		}
		prev = a
	}
}

func TestAlphaAtLeastOneForRealisticSizes(t *testing.T) {
	// With o ≥ 1 and d ≥ 1, eliminating a fault-in+diff pair is always at
	// least as expensive as one redirection, so α ≥ 1.
	m := FastEthernet()
	f := func(o, d uint16) bool {
		return m.Alpha(int(o)+1, int(d)+1) >= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAlphaNegativeInputsClamped(t *testing.T) {
	m := FastEthernet()
	if a := m.Alpha(-10, -10); a != m.Alpha(0, 0) {
		t.Fatalf("negative sizes not clamped: %v", a)
	}
}

// Property: t is monotone non-decreasing in message size.
func TestTimeMonotoneProperty(t *testing.T) {
	m := FastEthernet()
	f := func(a, b uint32) bool {
		x, y := int(a%1<<20), int(b%1<<20)
		if x > y {
			x, y = y, x
		}
		return m.Time(x) <= m.Time(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: time of a message is subadditive vs. splitting it in two
// (batching always wins because of the duplicated start-up term).
func TestBatchingWinsProperty(t *testing.T) {
	m := FastEthernet()
	f := func(a, b uint16) bool {
		whole := m.Time(int(a) + int(b))
		split := m.Time(int(a)) + m.Time(int(b))
		return whole <= split
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGigabitFasterThanFastEthernet(t *testing.T) {
	fe, gb := FastEthernet(), Gigabit()
	for _, m := range []int{1, 100, 10000, 1 << 20} {
		if gb.Time(m) >= fe.Time(m) {
			t.Fatalf("gigabit not faster at %d bytes", m)
		}
	}
}

func TestGigabitAlphaCloserToOne(t *testing.T) {
	// Faster networks shrink the relative benefit of eliminating a data
	// transfer, so α should be closer to 1 — for equal half-peak-relative
	// sizes it actually depends on m½; assert the concrete relation at a
	// fixed object size.
	o, d := 4096, 1024
	fe := FastEthernet().Alpha(o, d)
	gb := Gigabit().Alpha(o, d)
	if !(gb < fe) {
		t.Fatalf("expected α(gigabit) < α(fastEthernet): %v vs %v", gb, fe)
	}
}

func TestStringFormat(t *testing.T) {
	s := FastEthernet().String()
	if s == "" {
		t.Fatal("empty String()")
	}
}

func TestParse(t *testing.T) {
	for name, want := range map[string]Model{
		"fastethernet": FastEthernet(), "fe": FastEthernet(),
		"gigabit": Gigabit(), "gbe": Gigabit(),
	} {
		if got, err := Parse(name); err != nil || got != want {
			t.Errorf("Parse(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	for _, bad := range []string{"", "FE", "infiniband"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) succeeded", bad)
		}
	}
}
