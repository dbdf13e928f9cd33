package wire

import (
	"encoding/hex"
	"reflect"
	"repro/internal/prng"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/memory"
	"repro/internal/twindiff"
)

func sampleMsg() Msg {
	return Msg{
		Kind:      ObjReply,
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
		HasRec:    true,
		Seq:       1001,
		Data:      []uint64{10, 20, 30},
		Diff:      twindiff.OneRun(1, 99),
		Diffs: []ObjDiff{
			{Obj: 7, D: twindiff.OneRun(0, 1, 2)},
			{Obj: 8, D: twindiff.Diff{}},
		},
		Rec:     core.Record{TBase: 2.5, Epoch: 3, AvgDiff: 77.5, DiffObs: 12},
		Assigns: []HomeAssign{{Obj: 4, Home: 2}},
		Reports: []WriteReport{{Obj: 4, Writer: 6}, {Obj: 5, Writer: 0}},
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
	buf := sampleMsg().Encode(nil)
	for cut := 0; cut < len(buf); cut += 3 {
		if _, err := Decode(buf[:cut]); err == nil {
			t.Fatalf("truncated to %d/%d accepted", cut, len(buf))
		}
	}
}

func TestDecodeRejectsTrailingGarbage(t *testing.T) {
	buf := sampleMsg().Encode(nil)
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
		m.HasRec = true
		m.Rec = core.Record{
			TBase:   rng.Float64() * 10,
			Epoch:   int32(rng.Intn(100)),
			AvgDiff: rng.Float64() * 1000,
			DiffObs: int32(rng.Intn(1000)),
		}
	}
	for i := 0; i < rng.Intn(4); i++ {
		m.Assigns = append(m.Assigns, HomeAssign{
			Obj: memory.ObjectID(rng.Uint32()), Home: memory.NodeID(rng.Intn(16))})
	}
	for i := 0; i < rng.Intn(4); i++ {
		m.Reports = append(m.Reports, WriteReport{
			Obj: memory.ObjectID(rng.Uint32()), Writer: memory.NodeID(rng.Intn(16))})
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

// TestMsgSize: Msg travels by value through handlers, queues and the
// simulator's event heap, so its size is a cost on every path; a Diff
// must stay one slice header.
func TestMsgSize(t *testing.T) {
	if got := unsafe.Sizeof(Msg{}); got > 192 {
		t.Fatalf("wire.Msg is %d bytes, want <= 192", got)
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
	buf := sampleMsg().Encode(nil)
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

func BenchmarkDecodeSparseDiff(b *testing.B) {
	frame := sparseDiffFrame()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(frame); err != nil {
			b.Fatal(err)
		}
	}
}
