package twindiff

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"
)

// TestPoolRoundTrip exercises the twin/diff freelist: buffers released
// through the pool must come back out with correct length and contents
// fully overwritten.
func TestPoolRoundTrip(t *testing.T) {
	var p Pool
	base := make([]uint64, 64)
	for i := range base {
		base[i] = uint64(i)
	}
	tw := TwinInto(&p, base)
	for i, w := range tw {
		if w != base[i] {
			t.Fatalf("twin[%d] = %d", i, w)
		}
	}
	cur := make([]uint64, 64)
	copy(cur, base)
	cur[3] = 99
	cur[40], cur[41] = 1, 2
	d := ComputeInto(&p, tw, cur)
	if d.WordCount() != 3 || d.NumRuns() != 2 {
		t.Fatalf("diff = %+v", d)
	}
	p.PutWords(tw)
	p.PutDiff(d)
	// A second cycle must reuse the released buffers and still be correct.
	if len(p.free) != 2 {
		t.Fatalf("freelist holds %d buffers after two Puts", len(p.free))
	}
	tw2 := TwinInto(&p, cur)
	cur2 := make([]uint64, 64)
	copy(cur2, cur)
	cur2[10] = 7
	d2 := ComputeInto(&p, tw2, cur2)
	if !reflect.DeepEqual(d2, OneRun(10, 7)) {
		t.Fatalf("diff2 = %+v", d2)
	}
	if len(p.free) != 0 {
		t.Fatalf("second cycle allocated instead of reusing: %d buffers still free", len(p.free))
	}
	applied := make([]uint64, 64)
	copy(applied, cur)
	d2.Apply(applied)
	for i := range applied {
		if applied[i] != cur2[i] {
			t.Fatalf("applied[%d] = %d, want %d", i, applied[i], cur2[i])
		}
	}
}

// TestPoolNilIsPlainAllocation locks in that a nil pool degrades to the
// allocate-per-call behavior (Compute and Twin delegate to it).
func TestPoolNilIsPlainAllocation(t *testing.T) {
	var p *Pool
	buf := p.getWords(8, 0)
	if len(buf) != 8 {
		t.Fatalf("len = %d", len(buf))
	}
	p.PutWords(buf) // must not panic
	p.PutDiff(OneRun(0, buf...))
}

// TestComputeIntoMatchesCompute: pooled and unpooled compute agree for
// arbitrary inputs.
func TestComputeIntoMatchesCompute(t *testing.T) {
	f := func(a, b []byte) bool {
		n := min(len(a), len(b))
		twin := make([]uint64, n)
		cur := make([]uint64, n)
		for i := 0; i < n; i++ {
			twin[i], cur[i] = uint64(a[i]), uint64(b[i])
		}
		var pool Pool
		d1 := Compute(twin, cur)
		d2 := ComputeInto(&pool, twin, cur)
		return reflect.DeepEqual(d1, d2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkTwindiffComputeMerge measures the per-release diff pipeline:
// twin, mutate, compute (pooled), merge with a second diff, release. This
// is the per-interval cost every writing node pays.
func BenchmarkTwindiffComputeMerge(b *testing.B) {
	b.ReportAllocs()
	const words = 512
	var pool Pool
	base := make([]uint64, words)
	for i := range base {
		base[i] = uint64(i * 3)
	}
	cur := make([]uint64, words)
	copy(cur, base)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tw := TwinInto(&pool, cur)
		// Scattered interval writes: two dense runs plus a lone word.
		for k := 0; k < 16; k++ {
			cur[10+k] = uint64(i + k)
			cur[200+k] = uint64(i ^ k)
		}
		cur[500] = uint64(i)
		d1 := ComputeInto(&pool, tw, cur)
		pool.PutWords(tw)
		tw2 := TwinInto(&pool, cur)
		for k := 0; k < 8; k++ {
			cur[20+k] = uint64(i + 7*k)
		}
		d2 := ComputeInto(&pool, tw2, cur)
		pool.PutWords(tw2)
		m := Merge(d1, d2)
		if m.Empty() && (!d1.Empty() || !d2.Empty()) {
			b.Fatal("merge lost runs")
		}
		pool.PutDiff(d1)
		pool.PutDiff(d2)
	}
}

// TestPoolFreelistBounded: traffic that hands the pool more than it takes
// (every fault-in's payload is released at the requester) must not grow
// the freelist without limit, and an exact-size payload may come back as
// a twin but never as a diff buffer.
func TestPoolFreelistBounded(t *testing.T) {
	var p Pool
	data := make([]uint64, 32)
	for i := 0; i < 100_000; i++ {
		p.PutWords(make([]uint64, 32)) // a decoded payload, released at invalidation
		p.PutWords(TwinInto(&p, data)) // balanced: drawn and returned
		if len(p.free) > maxFree {
			t.Fatalf("cycle %d: freelist holds %d buffers, bound is %d", i, len(p.free), maxFree)
		}
	}
	if len(p.free) != maxFree {
		t.Fatalf("freelist holds %d buffers after unbalanced traffic, want the bound %d", len(p.free), maxFree)
	}
	dense := make([]uint64, 32)
	for i := range dense {
		dense[i] = 1
	}
	if ComputeInto(&p, data, dense); len(p.free) != maxFree {
		t.Fatalf("a diff drew a payload buffer without diff slack (%d left free)", len(p.free))
	}
}

// TestPoolKeepsSizesApart: a large buffer is not handed out for a small
// object (it stays for an object of its own size).
func TestPoolKeepsSizesApart(t *testing.T) {
	var p Pool
	p.PutWords(Twin(make([]uint64, 256)))
	if small := TwinInto(&p, make([]uint64, 1)); cap(small) > 16 {
		t.Fatalf("1-word twin drew a %d-word buffer", cap(small))
	}
	if row := TwinInto(&p, make([]uint64, 256)); len(p.free) != 0 || len(row) != 256 {
		t.Fatalf("row twin did not reuse the row buffer (%d still free)", len(p.free))
	}
}

// sparseRow returns a 256-word row and a copy with every odd word
// changed — what a red-black SOR half-sweep does to a row.
func sparseRow() (twin, cur []uint64) {
	twin = make([]uint64, 256)
	for i := range twin {
		twin[i] = uint64(i)*0x9E3779B97F4A7C15 + 1
	}
	cur = Twin(twin)
	for i := 1; i < len(cur); i += 2 {
		cur[i]++
	}
	return twin, cur
}

// TestHotPathAllocations pins the allocation counts the flat layout
// exists for: none for a pooled compute and release, none for apply (the
// one buffer per decoded diff is pinned on the whole frame, in wire).
func TestHotPathAllocations(t *testing.T) {
	twin, cur := sparseRow()
	var p Pool
	p.PutDiff(ComputeInto(&p, twin, cur))
	if n := testing.AllocsPerRun(100, func() { p.PutDiff(ComputeInto(&p, twin, cur)) }); n != 0 {
		t.Errorf("pooled ComputeInto+PutDiff allocates %v times", n)
	}
	d := Compute(twin, cur)
	dst := Twin(twin)
	if n := testing.AllocsPerRun(100, func() { d.Apply(dst) }); n != 0 {
		t.Errorf("Apply allocates %v times", n)
	}
}

// TestEncodingGolden pins the wire format: a 4-byte run count, then per
// run [start u32][len u32][len × u64], all little-endian. The sparse row
// diff is spelled out independently of Encode.
func TestEncodingGolden(t *testing.T) {
	small := Merge(OneRun(2, 7, 8), OneRun(100, 0xdeadbeef))
	want := []byte{
		2, 0, 0, 0,
		2, 0, 0, 0, 2, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0, 8, 0, 0, 0, 0, 0, 0, 0,
		100, 0, 0, 0, 1, 0, 0, 0, 0xef, 0xbe, 0xad, 0xde, 0, 0, 0, 0,
	}
	if got := small.Encode(nil); !bytes.Equal(got, want) {
		t.Fatalf("small diff encodes as\n%x, want\n%x", got, want)
	}
	twin, cur := sparseRow()
	want = binary.LittleEndian.AppendUint32(nil, 128)
	for i := 1; i < len(cur); i += 2 {
		want = binary.LittleEndian.AppendUint32(want, uint32(i))
		want = binary.LittleEndian.AppendUint32(want, 1)
		want = binary.LittleEndian.AppendUint64(want, cur[i])
	}
	d := Compute(twin, cur)
	if got := d.Encode(nil); !bytes.Equal(got, want) || d.WireSize() != len(want) {
		t.Fatalf("sparse row diff: %d bytes (WireSize %d), want %d; equal=%v",
			len(got), d.WireSize(), len(want), bytes.Equal(got, want))
	}
}

// TestDecodeRejectsNonCanonical: Apply and Merge assume non-empty,
// increasing, non-overlapping runs, so DecodeInto lets nothing else in — and
// decides before it allocates. A reject allocates only its error (2–4
// allocations, testing.AllocsPerRun), never the 2³² words a length claims.
// TotalAlloc counts the whole process, so the bound is on the mean over
// 64 calls: a stray allocation elsewhere cannot fail a case.
func TestDecodeRejectsNonCanonical(t *testing.T) {
	run := func(start, n uint32, words ...uint64) []byte {
		b := binary.LittleEndian.AppendUint32(nil, start)
		b = binary.LittleEndian.AppendUint32(b, n)
		for _, w := range words {
			b = binary.LittleEndian.AppendUint64(b, w)
		}
		return b
	}
	diff := func(count uint32, runs ...[]byte) []byte {
		b := binary.LittleEndian.AppendUint32(nil, count)
		return append(b, bytes.Join(runs, nil)...)
	}
	for name, buf := range map[string][]byte{
		"empty run":      diff(1, run(3, 0)),
		"overlap":        diff(2, run(0, 2, 1, 2), run(1, 1, 9)),
		"out of order":   diff(2, run(5, 1, 1), run(2, 1, 2)),
		"index overflow": diff(1, run(math.MaxUint32, 1, 1)),
		"count 2^32-1":   diff(math.MaxUint32, run(0, 1, 1)),
		"length 2^32-1":  diff(1, run(0, math.MaxUint32, 1)),
	} {
		const rejectCalls = 64
		var before, after runtime.MemStats
		var err error
		runtime.ReadMemStats(&before)
		for range rejectCalls {
			_, _, err = DecodeInto(nil, buf)
		}
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
		if perCall := (after.TotalAlloc - before.TotalAlloc) / rejectCalls; perCall > 4096 {
			t.Errorf("%s: DecodeInto allocated %d bytes per call before rejecting", name, perCall)
		}
	}
	// Adjacent runs are unusual (Compute emits maximal runs) but well
	// formed, and must survive a round trip byte for byte.
	adj := diff(2, run(0, 1, 1), run(1, 1, 2))
	d, n, err := DecodeInto(nil, adj)
	if err != nil || n != len(adj) || !bytes.Equal(d.Encode(nil), adj) {
		t.Fatalf("adjacent runs: n=%d err=%v", n, err)
	}
}
