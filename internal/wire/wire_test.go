package wire

import (
	"encoding/hex"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/prng"

	"repro/internal/core"
	"repro/internal/memory"
	"repro/internal/twindiff"
)

// sampleMsg sets every header field and flag and fills every section: a
// write-reporting barrier arrival, which the codec carries with a
// migration record as readily as any other kind.
func sampleMsg() Msg {
	return Msg{
		Kind:      BarrierArrive,
		From:      3,
		To:        1,
		Obj:       42,
		ReplyNode: 1,
		ReplySlot: 7,
		Hops:      2,
		Lock:      5,
		Barrier:   9,
		Home:      3,
		Migrate:   true,
		Seq:       1001,
		Data:      []uint64{10, 20, 30},
		Diff:      twindiff.OneRun(1, 99),
		Diffs: []ObjDiff{
			{Obj: 7, D: twindiff.OneRun(0, 1, 2)},
			{Obj: 8, D: twindiff.Diff{}},
		},
		Rec:   &core.Record{TBase: 2.5, Epoch: 3, AvgDiff: 77.5, DiffObs: 12},
		Pairs: []Pair{{Obj: 4, Node: 6}, {Obj: 5, Node: 0}},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	m := sampleMsg()
	buf := m.Encode(nil)
	got, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, m)
	}
}

func TestWireSizeMatchesEncoding(t *testing.T) {
	m := sampleMsg()
	if got, want := len(m.Encode(nil)), m.WireSize(); got != want {
		t.Fatalf("encoded %d bytes, WireSize = %d", got, want)
	}
}

func TestMinimalMessageSize(t *testing.T) {
	// A bare request (no payload sections) should stay small: header +
	// four empty section counts + empty diff header.
	m := Msg{Kind: ObjReq, From: 0, To: 1, Obj: 9}
	if got := m.WireSize(); got != 32+4+4+4+4+4 {
		t.Fatalf("minimal WireSize = %d", got)
	}
	dec, err := Decode(m.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Kind != ObjReq || dec.Obj != 9 {
		t.Fatalf("decoded %+v", dec)
	}
}

func TestNegativeNodeIDsSurvive(t *testing.T) {
	m := Msg{Kind: HomeMiss, From: memory.NoNode, To: 2, Home: memory.NoNode}
	dec, err := Decode(m.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if dec.From != memory.NoNode || dec.Home != memory.NoNode {
		t.Fatalf("NoNode mangled: %+v", dec)
	}
}

// TestPeekFromMatchesEncode pins PeekFrom to the header Encode writes:
// for every kind and a spread of senders (negative ones included) it
// reads back From, and a frame too short to hold the field is refused.
func TestPeekFromMatchesEncode(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		for _, from := range []memory.NodeID{0, 1, 7, 300, memory.NoNode} {
			m := sampleMsg()
			m.Kind, m.From = k, from
			frame := m.Encode(nil)
			if got, ok := PeekFrom(frame); !ok || got != from {
				t.Errorf("%v from %d: PeekFrom = %d, %v", k, from, got, ok)
			}
			if got, ok := PeekFrom(frame[:3]); !ok || got != from {
				t.Errorf("%v from %d: PeekFrom of the 3-byte prefix = %d, %v", k, from, got, ok)
			}
		}
	}
	for n := 0; n < 3; n++ {
		if _, ok := PeekFrom(make([]byte, n)); ok {
			t.Errorf("PeekFrom accepted a %d-byte frame", n)
		}
	}
}

func TestDecodeRejectsUnknownKind(t *testing.T) {
	m := Msg{Kind: ObjReq}
	buf := m.Encode(nil)
	buf[0] = 200
	if _, err := Decode(buf); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	m := sampleMsg()
	buf := m.Encode(nil)
	for cut := 0; cut < len(buf); cut += 3 {
		if _, err := Decode(buf[:cut]); err == nil {
			t.Fatalf("truncated to %d/%d accepted", cut, len(buf))
		}
	}
}

func TestDecodeRejectsTrailingGarbage(t *testing.T) {
	m := sampleMsg()
	buf := m.Encode(nil)
	buf = append(buf, 0xFF)
	if _, err := Decode(buf); err == nil {
		t.Fatal("trailing garbage accepted")
	}
}

func TestKindString(t *testing.T) {
	if ObjReq.String() != "ObjReq" || HomeMiss.String() != "HomeMiss" {
		t.Fatal("kind names wrong")
	}
	if Kind(99).String() == "" {
		t.Fatal("out-of-range kind prints empty")
	}
}

// randMsg builds a random message for fuzz-style round-trip testing.
func randMsg(rng *prng.Rand) Msg {
	m := Msg{
		Kind:      Kind(rng.Intn(int(numKinds))),
		From:      memory.NodeID(rng.Intn(16)),
		To:        memory.NodeID(rng.Intn(16)),
		Obj:       memory.ObjectID(rng.Uint32()),
		ReplyNode: memory.NodeID(rng.Intn(16)),
		ReplySlot: int32(rng.Intn(64)),
		Hops:      uint16(rng.Intn(8)),
		Lock:      rng.Uint32(),
		Barrier:   rng.Uint32(),
		Home:      memory.NodeID(rng.Intn(16)),
		Migrate:   rng.Intn(2) == 0,
		Seq:       rng.Uint32(),
	}
	if rng.Intn(2) == 0 {
		m.Data = make([]uint64, rng.Intn(16))
		for i := range m.Data {
			m.Data[i] = rng.Uint64()
		}
		if len(m.Data) == 0 {
			m.Data = nil
		}
	}
	if rng.Intn(2) == 0 {
		base := make([]uint64, 32)
		cur := twindiff.Twin(base)
		for i := 0; i < rng.Intn(10); i++ {
			cur[rng.Intn(32)] = rng.Uint64()
		}
		m.Diff = twindiff.Compute(base, cur)
	}
	for i := 0; i < rng.Intn(3); i++ {
		base := make([]uint64, 8)
		cur := twindiff.Twin(base)
		cur[rng.Intn(8)] = rng.Uint64()
		m.Diffs = append(m.Diffs, ObjDiff{
			Obj: memory.ObjectID(rng.Uint32()),
			D:   twindiff.Compute(base, cur),
		})
	}
	if rng.Intn(2) == 0 {
		m.Rec = &core.Record{
			TBase:   rng.Float64() * 10,
			Epoch:   int32(rng.Intn(100)),
			AvgDiff: rng.Float64() * 1000,
			DiffObs: int32(rng.Intn(1000)),
		}
	}
	if m.Kind == BarrierArrive || m.Kind == BarrierGo {
		for i := 0; i < rng.Intn(4); i++ {
			m.Pairs = append(m.Pairs, Pair{
				Obj: memory.ObjectID(rng.Uint32()), Node: memory.NodeID(rng.Intn(16))})
		}
	}
	return m
}

func TestRandomRoundTripProperty(t *testing.T) {
	rng := prng.New(42)
	for i := 0; i < 500; i++ {
		m := randMsg(rng)
		buf := m.Encode(nil)
		if len(buf) != m.WireSize() {
			t.Fatalf("iter %d: encode len %d != WireSize %d", i, len(buf), m.WireSize())
		}
		got, err := Decode(buf)
		if err != nil {
			t.Fatalf("iter %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("iter %d: round trip mismatch\n got %+v\nwant %+v", i, got, m)
		}
	}
}

// TestGoldenPiggybackedLockRel pins the frame of a release carrying two
// piggybacked diffs, one of them empty. The bytes were produced by the
// run-of-slices codec this layout replaced: the format did not move.
func TestGoldenPiggybackedLockRel(t *testing.T) {
	m := Msg{Kind: LockRel, From: 1, To: 0, Lock: 4, ReplyNode: 1, ReplySlot: 2, Seq: 7,
		Diffs: []ObjDiff{
			{Obj: 5, D: twindiff.Merge(twindiff.OneRun(3, 1, 2), twindiff.OneRun(9, 0xDEADBEEF))},
			{Obj: 6, D: twindiff.Diff{}},
		}}
	const want = "0601000000000000000100020000000000040000000000000000000007000000" + // header
		"00000000" + "00000000" + // no data, empty diff
		"02000000" + // two piggybacked diffs
		"05000000" + "02000000" + "0300000002000000" + "0100000000000000" + "0200000000000000" +
		"0900000001000000" + "efbeadde00000000" +
		"06000000" + "00000000" +
		"00000000" + "00000000" // no assigns, no reports
	got := m.Encode(nil)
	if hex.EncodeToString(got) != want {
		t.Fatalf("frame moved:\n got %x\nwant %s", got, want)
	}
	dec, err := Decode(got)
	if err != nil || !reflect.DeepEqual(dec, m) {
		t.Fatalf("golden frame decodes to %+v (err %v)", dec, err)
	}
}

// TestGoldenPairsAndRecord pins the frames of the sections Msg keeps in
// a compact form: a migrating reply's record (behind a pointer, flag bit
// 2) and a barrier message's pairs (one slice, written in its kind's
// count slot). The bytes were produced by the codec of the separate
// HasRec flag, inline record and Assigns/Reports slices: the format did
// not move.
func TestGoldenPairsAndRecord(t *testing.T) {
	for _, c := range []struct {
		msg  Msg
		want string
	}{
		{Msg{Kind: ObjReply, From: 2, To: 1, Obj: 7, ReplyNode: 1, ReplySlot: 3, Home: 1, Seq: 5,
			Migrate: true, Rec: &core.Record{TBase: 2.5, Epoch: 3, AvgDiff: 88.25, DiffObs: 4},
			Data: []uint64{1, 2}},
			"0102000100070000000100030000000000000000000000000001000305000000" + // header, flags 3
				"020000000100000000000000020000000000000000000000000000000000000000000440030000000000000000105640040000000000000000000000"},
		{Msg{Kind: BarrierArrive, From: 3, To: 0, Barrier: 1, ReplyNode: 3, ReplySlot: 1,
			Pairs: []Pair{{Obj: 4, Node: 3}, {Obj: 9, Node: 3}}},
			"0703000000000000000300010000000000000000000100000000000000000000" +
				"0000000000000000000000000000000002000000040000000300090000000300"}, // reports slot
		{Msg{Kind: BarrierGo, From: 0, To: 2, Barrier: 1, Pairs: []Pair{{Obj: 4, Node: 3}}},
			"0800000200000000000000000000000000000000000100000000000000000000" +
				"0000000000000000000000000100000004000000030000000000"}, // assigns slot
	} {
		got := c.msg.Encode(nil)
		if hex.EncodeToString(got) != c.want {
			t.Fatalf("%v frame moved:\n got %x\nwant %s", c.msg.Kind, got, c.want)
		}
		dec, err := Decode(got)
		if err != nil || !reflect.DeepEqual(dec, c.msg) {
			t.Fatalf("golden %v frame decodes to %+v (err %v)", c.msg.Kind, dec, err)
		}
	}
}

// TestDecodeRejectsPairsOffTheirKind: the two pair counts belong to
// BarrierGo and BarrierArrive; a frame of another kind with either
// nonzero, or a barrier message with pairs in the other's slot, is not
// one Encode writes, and Decode refuses it.
func TestDecodeRejectsPairsOffTheirKind(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		for slot, carrier := range [2]Kind{BarrierGo, BarrierArrive} {
			_, err := Decode(pairFrame(k, slot))
			if k == carrier && err != nil {
				t.Errorf("%v with a pair in its own slot: %v", k, err)
			}
			if k != carrier && err == nil {
				t.Errorf("%v with a pair in %v's slot accepted", k, carrier)
			}
		}
	}
}

// TestMsgSize: Msg is decoded in place and the engines handle it by
// pointer, but some copies remain, each a cost of Msg's size:
// proto.Engine's Send/ToThread take it by value (the benchmark's handler
// probes implement them so); a live thread's mailbox holds proto.Token by
// value and copies it once more into the Driver's receive buffer; the
// simulator copies a sent frame into its cnet box and a thread's delivery
// out of it; the live engine parks an unroutable frame by value. A Diff
// must stay one slice header.
func TestMsgSize(t *testing.T) {
	if got := unsafe.Sizeof(Msg{}); got > 136 {
		t.Fatalf("wire.Msg is %d bytes, want <= 136", got)
	}
}

func BenchmarkEncode(b *testing.B) {
	m := sampleMsg()
	buf := make([]byte, 0, 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = m.Encode(buf[:0])
	}
}

func BenchmarkDecode(b *testing.B) {
	m := sampleMsg()
	buf := m.Encode(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// sparseDiffFrame is a DiffMsg for one red-black SOR row: every second
// word of 256 changed, 128 one-word runs.
func sparseDiffFrame() []byte {
	twin := make([]uint64, 256)
	cur := twindiff.Twin(twin)
	for i := 1; i < len(cur); i += 2 {
		cur[i] = uint64(i)
	}
	m := Msg{Kind: DiffMsg, From: 1, To: 0, Obj: 7, Home: 1, ReplyNode: 1, Diff: twindiff.Compute(twin, cur)}
	return m.Encode(nil)
}

// smallFrame is a lock request, the frame of a §5.2 lock chain.
func smallFrame() []byte {
	m := Msg{Kind: LockReq, From: 1, To: 0, Lock: 1, ReplyNode: 1}
	return m.Encode(nil)
}

// rowFrame is a fault-in reply carrying one 256-word (2 KB) SOR row.
func rowFrame() []byte {
	row := make([]uint64, 256)
	for i := range row {
		row[i] = uint64(i) * 0x9E3779B97F4A7C15
	}
	m := Msg{Kind: ObjReply, From: 0, To: 1, Obj: 7, ReplyNode: 1, Data: row}
	return m.Encode(nil)
}

// shapes are the three frames the live engine's workloads are made of,
// the shapes the benchmark's codec probe times.
var shapes = []struct {
	name  string
	frame func() []byte
}{{"small", smallFrame}, {"row", rowFrame}, {"diff", sparseDiffFrame}}

// TestDecodeInPlaceResets decodes small → row → diff → small into one
// Msg: each result must equal a fresh decode of its frame, so no field or
// slice of the frame before survives into the next.
func TestDecodeInPlaceResets(t *testing.T) {
	var reused Msg
	for _, i := range []int{0, 1, 2, 0} {
		frame := shapes[i].frame()
		fresh, err := Decode(frame)
		if err != nil {
			t.Fatal(err)
		}
		if err := reused.Decode(frame); err != nil {
			t.Fatalf("%s: %v", shapes[i].name, err)
		}
		if !reused.Equal(&fresh) {
			t.Fatalf("%s decoded in place:\n got %+v\nwant %+v", shapes[i].name, reused, fresh)
		}
	}
}

// TestDecodeInPlaceSmallAllocatesNothing: a lock-chain frame decodes
// into a reused Msg without allocating.
func TestDecodeInPlaceSmallAllocatesNothing(t *testing.T) {
	frame := smallFrame()
	var m Msg
	if n := testing.AllocsPerRun(100, func() {
		if err := m.Decode(frame); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("in-place Decode of a LockReq allocates %v times", n)
	}
}

func TestDecodeSparseDiffAllocatesOnce(t *testing.T) {
	frame := sparseDiffFrame()
	if n := testing.AllocsPerRun(100, func() {
		if _, err := Decode(frame); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Fatalf("Decode of a sparse row DiffMsg allocates %v times", n)
	}
}

// TestDecodeInPlaceSparseDiffAllocatesOnce is the in-place twin of
// TestDecodeSparseDiffAllocatesOnce: the diff's one run buffer is all a
// reused Msg costs.
func TestDecodeInPlaceSparseDiffAllocatesOnce(t *testing.T) {
	frame := sparseDiffFrame()
	var m Msg
	if n := testing.AllocsPerRun(100, func() {
		if err := m.Decode(frame); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Fatalf("in-place Decode of a sparse row DiffMsg allocates %v times", n)
	}
}

// TestDecodePooledAllocatesNothing is the pooled sibling of
// TestDecodeInPlaceSparseDiffAllocatesOnce: once the pool holds buffers
// of the payloads' sizes, decoding each frame shape into a reused Msg and
// returning its payloads at their last use, as the live receive path
// does, allocates nothing.
func TestDecodePooledAllocatesNothing(t *testing.T) {
	for _, s := range shapes {
		frame := s.frame()
		var pool twindiff.Pool
		var m Msg
		decode := func() {
			if err := m.DecodePooled(frame, &pool); err != nil {
				t.Fatal(err)
			}
			pool.PutWords(m.Data)
			pool.PutDiff(m.Diff)
		}
		decode() // warm-up: the pool's first buffers
		if n := testing.AllocsPerRun(100, decode); n != 0 {
			t.Errorf("pooled Decode of the %s frame allocates %v times", s.name, n)
		}
	}
}

// TestDecodePooledMatchesFresh decodes every frame shape through a pool
// whose buffers are dirty and of assorted capacities: each result must
// equal a fresh decode.
func TestDecodePooledMatchesFresh(t *testing.T) {
	for _, s := range shapes {
		frame := s.frame()
		fresh, err := Decode(frame)
		if err != nil {
			t.Fatal(err)
		}
		var pool twindiff.Pool
		dirtyPool(&pool)
		var m Msg
		if err := m.DecodePooled(frame, &pool); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if !m.Equal(&fresh) {
			t.Fatalf("%s decoded through a dirty pool:\n got %+v\nwant %+v", s.name, m, fresh)
		}
	}
}

// dirtyPool fills pool with buffers of assorted capacities around the
// frame shapes' sizes, every word set.
func dirtyPool(pool *twindiff.Pool) {
	for _, n := range []int{1, 3, 200, 255, 256, 257, 258, 300, 400, 513} {
		buf := make([]uint64, n)
		for i := range buf {
			buf[i] = ^uint64(i)
		}
		pool.PutWords(buf)
	}
}

// BenchmarkDecodeInPlace decodes each frame shape into one reused Msg,
// the way the live receive path does: payloads drawn from the node's
// pool and returned to it at their last use.
func BenchmarkDecodeInPlace(b *testing.B) {
	for _, s := range shapes {
		b.Run(s.name, func(b *testing.B) {
			frame := s.frame()
			var pool twindiff.Pool
			var m Msg
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := m.DecodePooled(frame, &pool); err != nil {
					b.Fatal(err)
				}
				pool.PutWords(m.Data)
				pool.PutDiff(m.Diff)
			}
		})
	}
}

func BenchmarkDecodeSparseDiff(b *testing.B) {
	frame := sparseDiffFrame()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(frame); err != nil {
			b.Fatal(err)
		}
	}
}
