package twindiff

import (
	"reflect"
	"repro/internal/prng"
	"testing"
	"testing/quick"
)

func TestComputeEmptyWhenUnchanged(t *testing.T) {
	data := []uint64{1, 2, 3, 4}
	tw := Twin(data)
	d := Compute(tw, data)
	if !d.Empty() || d.WordCount() != 0 || d.End() != 0 {
		t.Fatalf("diff of unchanged data = %+v", d)
	}
	if d.WireSize() != 4 {
		t.Fatalf("empty diff wire size = %d, want 4", d.WireSize())
	}
}

func TestTwinIsIndependentCopy(t *testing.T) {
	data := []uint64{1, 2, 3}
	tw := Twin(data)
	data[0] = 99
	if tw[0] != 1 {
		t.Fatal("twin aliases original data")
	}
}

func TestComputeSingleRun(t *testing.T) {
	tw := []uint64{0, 0, 0, 0, 0}
	cur := []uint64{0, 7, 8, 0, 0}
	d := Compute(tw, cur)
	want := OneRun(1, 7, 8)
	if !reflect.DeepEqual(d, want) {
		t.Fatalf("diff = %+v", d)
	}
}

func TestComputeMultipleRuns(t *testing.T) {
	tw := []uint64{1, 2, 3, 4, 5, 6}
	cur := []uint64{9, 2, 3, 8, 8, 6}
	d := Compute(tw, cur)
	if d.NumRuns() != 2 {
		t.Fatalf("runs = %d, want 2: %+v", d.NumRuns(), d)
	}
	if d.WordCount() != 3 {
		t.Fatalf("words = %d, want 3", d.WordCount())
	}
	if d.End() != 5 {
		t.Fatalf("end = %d, want 5 (the second run ends there)", d.End())
	}
}

func TestComputeLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on length mismatch")
		}
	}()
	Compute([]uint64{1}, []uint64{1, 2})
}

func TestApplyOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on out-of-range apply")
		}
	}()
	d := OneRun(3, 1, 2)
	d.Apply(make([]uint64, 4))
}

func TestApplyReconstructs(t *testing.T) {
	tw := []uint64{10, 20, 30, 40}
	cur := []uint64{11, 20, 33, 40}
	d := Compute(tw, cur)
	home := Twin(tw)
	d.Apply(home)
	if !reflect.DeepEqual(home, cur) {
		t.Fatalf("apply(diff) = %v, want %v", home, cur)
	}
}

func TestWireSizeAccountsRunsAndWords(t *testing.T) {
	d := Merge(OneRun(0, 1), OneRun(5, 2, 3))
	// 4 header + (8+8) + (8+16) = 44
	if d.WireSize() != 44 {
		t.Fatalf("WireSize = %d, want 44", d.WireSize())
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	d := Merge(OneRun(2, 7, 8, 9), OneRun(100, 0xdeadbeef))
	buf := d.Encode(nil)
	if len(buf) != d.WireSize() {
		t.Fatalf("encoded %d bytes, WireSize says %d", len(buf), d.WireSize())
	}
	got, n, err := DecodeInto(nil, buf)
	if err != nil || n != len(buf) {
		t.Fatalf("DecodeInto: n=%d err=%v", n, err)
	}
	if !reflect.DeepEqual(got, d) {
		t.Fatalf("round trip: %+v != %+v", got, d)
	}
}

func TestDecodeTruncated(t *testing.T) {
	d := OneRun(2, 7, 8)
	buf := d.Encode(nil)
	for cut := 1; cut < len(buf); cut++ {
		if _, _, err := DecodeInto(nil, buf[:cut]); err == nil {
			t.Fatalf("DecodeInto of %d/%d bytes succeeded", cut, len(buf))
		}
	}
}

func TestMergeDisjoint(t *testing.T) {
	a := OneRun(0, 1)
	b := OneRun(2, 3)
	m := Merge(a, b)
	dst := make([]uint64, 4)
	m.Apply(dst)
	if dst[0] != 1 || dst[2] != 3 {
		t.Fatalf("merged apply = %v", dst)
	}
}

func TestMergeOverlapSecondWins(t *testing.T) {
	a := OneRun(1, 10, 11)
	b := OneRun(2, 99)
	m := Merge(a, b)
	dst := make([]uint64, 4)
	m.Apply(dst)
	if dst[1] != 10 || dst[2] != 99 {
		t.Fatalf("merged apply = %v", dst)
	}
}

func TestMergeEmpty(t *testing.T) {
	m := Merge(Diff{}, Diff{})
	if !m.Empty() {
		t.Fatalf("merge of empties = %+v", m)
	}
}

func TestMergeCoalescesAdjacent(t *testing.T) {
	a := OneRun(0, 1)
	b := OneRun(1, 2)
	m := Merge(a, b)
	if !reflect.DeepEqual(m, OneRun(0, 1, 2)) {
		t.Fatalf("adjacent runs not coalesced: %+v", m)
	}
}

// randomMutation applies k random word writes to a copy of base.
func randomMutation(base []uint64, rng *prng.Rand, k int) []uint64 {
	out := Twin(base)
	for i := 0; i < k; i++ {
		out[rng.Intn(len(out))] = rng.Uint64()
	}
	return out
}

// Property: apply(Compute(twin, cur), twin) == cur for random mutations.
func TestDiffRoundTripProperty(t *testing.T) {
	rng := prng.New(7)
	for iter := 0; iter < 500; iter++ {
		n := 1 + rng.Intn(256)
		base := make([]uint64, n)
		for i := range base {
			base[i] = rng.Uint64()
		}
		cur := randomMutation(base, rng, rng.Intn(n+1))
		d := Compute(base, cur)
		got := Twin(base)
		d.Apply(got)
		if !reflect.DeepEqual(got, cur) {
			t.Fatalf("iter %d: round trip failed", iter)
		}
		// WordCount never exceeds object size; WireSize consistent.
		if d.WordCount() > n {
			t.Fatalf("WordCount %d > n %d", d.WordCount(), n)
		}
		if got := len(d.Encode(nil)); got != d.WireSize() {
			t.Fatalf("encode len %d != WireSize %d", got, d.WireSize())
		}
	}
}

// Property: merging diffs from two writers touching disjoint words equals
// applying them in either order — the multiple-writer guarantee that makes
// false sharing harmless (§1).
func TestMergeDisjointWritersProperty(t *testing.T) {
	rng := prng.New(11)
	for iter := 0; iter < 300; iter++ {
		n := 2 + rng.Intn(128)
		base := make([]uint64, n)
		for i := range base {
			base[i] = rng.Uint64()
		}
		// Writer A mutates even words, writer B odd words.
		curA, curB := Twin(base), Twin(base)
		for i := 0; i < n; i += 2 {
			if rng.Intn(2) == 0 {
				curA[i] = rng.Uint64()
			}
		}
		for i := 1; i < n; i += 2 {
			if rng.Intn(2) == 0 {
				curB[i] = rng.Uint64()
			}
		}
		dA, dB := Compute(base, curA), Compute(base, curB)
		ab, ba := Twin(base), Twin(base)
		dA.Apply(ab)
		dB.Apply(ab)
		dB.Apply(ba)
		dA.Apply(ba)
		if !reflect.DeepEqual(ab, ba) {
			t.Fatalf("iter %d: disjoint writers not order-independent", iter)
		}
		merged := Twin(base)
		Merge(dA, dB).Apply(merged)
		if !reflect.DeepEqual(merged, ab) {
			t.Fatalf("iter %d: merge != sequential apply", iter)
		}
	}
}

// Property (testing/quick): encode/decode round-trips arbitrary diffs
// built from a generated mutation set.
func TestEncodeDecodeQuick(t *testing.T) {
	f := func(idxs []uint8, vals []uint64) bool {
		base := make([]uint64, 300)
		cur := Twin(base)
		for i, ix := range idxs {
			v := uint64(i) + 1
			if i < len(vals) {
				v = vals[i]
			}
			cur[int(ix)%300] = v
		}
		d := Compute(base, cur)
		got, n, err := DecodeInto(nil, d.Encode(nil))
		return err == nil && n == d.WireSize() && reflect.DeepEqual(got, d)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkComputeSparse(b *testing.B) {
	base := make([]uint64, 4096)
	cur := Twin(base)
	for i := 0; i < 4096; i += 64 {
		cur[i] = uint64(i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Compute(base, cur)
	}
}

func BenchmarkApply(b *testing.B) {
	base := make([]uint64, 4096)
	cur := Twin(base)
	for i := 0; i < 4096; i += 8 {
		cur[i] = uint64(i)
	}
	d := Compute(base, cur)
	dst := Twin(base)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.Apply(dst)
	}
}
