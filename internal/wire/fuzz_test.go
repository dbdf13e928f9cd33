package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/memory"
	"repro/internal/twindiff"
)

// fuzzSeeds are valid encodings of representative messages, so the
// fuzzer starts from the interesting part of the input space.
func fuzzSeeds() [][]byte {
	diff := twindiff.Merge(twindiff.OneRun(3, 1, 2, 3), twindiff.OneRun(99, 0xDEADBEEF))
	msgs := []Msg{
		{Kind: ObjReq, From: 1, To: 2, Obj: 7, ReplyNode: 1, ReplySlot: 0, Seq: 9},
		{Kind: ObjReply, From: 2, To: 1, Obj: 7, ReplyNode: 1, Home: 2,
			Data: []uint64{10, 20, 30}, Hops: 3},
		{Kind: ObjReply, From: 2, To: 1, Obj: 7, Migrate: true,
			Rec:  &core.Record{TBase: 2.5, Epoch: 3, AvgDiff: 88.25, DiffObs: 4},
			Data: []uint64{1}},
		{Kind: DiffMsg, From: 0, To: 3, Obj: 1, Diff: diff, Home: 0, ReplyNode: 0, ReplySlot: 2},
		{Kind: LockRel, From: 1, To: 0, Lock: 4, ReplyNode: 1,
			Diffs: []ObjDiff{{Obj: 5, D: diff}}},
		{Kind: BarrierGo, From: 0, To: 2, Barrier: 1, Pairs: []Pair{{Obj: 3, Node: 2}}},
		{Kind: BarrierArrive, From: 1, To: 0, Barrier: 1, ReplyNode: 1,
			Pairs: []Pair{{Obj: 3, Node: 1}, {Obj: 4, Node: 1}}},
		{Kind: HomeMiss, From: 3, To: 1, Obj: 2, Home: memory.NoNode, ReplySlot: 1},
	}
	var out [][]byte
	for _, m := range msgs {
		out = append(out, m.Encode(nil))
	}
	return out
}

// nonCanonicalDiffSeeds are DiffMsg frames whose diff section is well
// framed but not canonical: an empty run, overlapping runs, runs out of
// order, a run ending past uint32, and a run count of 2³²−1 over a
// one-run body. Decode must reject each (the last without sizing an
// allocation by the count).
func nonCanonicalDiffSeeds() [][]byte {
	le := binary.LittleEndian
	run := func(start, n uint32, words ...uint64) []byte {
		b := le.AppendUint32(le.AppendUint32(nil, start), n)
		for _, w := range words {
			b = le.AppendUint64(b, w)
		}
		return b
	}
	frame := func(count uint32, runs ...[]byte) []byte {
		m := Msg{Kind: DiffMsg, From: 1, To: 0, Obj: 3, Home: 1, ReplyNode: 1}
		b := m.Encode(nil)
		// Header, empty data section, then the diff section, then the
		// four empty trailing sections.
		head, tail := b[:headerSize+4], b[headerSize+8:]
		out := append([]byte(nil), head...)
		out = le.AppendUint32(out, count)
		out = append(out, bytes.Join(runs, nil)...)
		return append(out, tail...)
	}
	return [][]byte{
		frame(1, run(3, 0)),
		frame(2, run(0, 2, 1, 2), run(1, 1, 9)),
		frame(2, run(5, 1, 1), run(2, 1, 2)),
		frame(1, run(math.MaxUint32, 1, 1)),
		frame(math.MaxUint32, run(0, 1, 1)),
	}
}

// pairFrame is an empty message of kind k with one pair in count slot
// slot: 0 is the reassignments' (BarrierGo's), 1 the reports'
// (BarrierArrive's).
func pairFrame(k Kind, slot int) []byte {
	m := Msg{Kind: k, From: 1, To: 0}
	frame := m.Encode(nil)
	at := len(frame) - 8 + 4*slot
	binary.LittleEndian.PutUint32(frame[at:], 1)
	return slices.Insert(frame, at+4, 3, 0, 0, 0, 1, 0) // object 3, node 1
}

// offKindPairSeeds are frames with a pair in a count slot their kind
// does not use: on a kind that carries none, and on each barrier kind in
// the other's slot. Decode must reject each.
func offKindPairSeeds() [][]byte {
	return [][]byte{
		pairFrame(LockReq, 1), pairFrame(ObjReply, 0),
		pairFrame(BarrierArrive, 0), pairFrame(BarrierGo, 1),
	}
}

// FuzzWireDecode hammers the codec with corrupt and truncated frames.
// The codec is the live engine's transport boundary, where bytes come
// from outside the process once a networked backend exists, so Decode
// must return errors — never panic, never over-allocate unchecked —
// and accepted frames must be canonical: Decode/Encode round-trips to
// the identical bytes and the same message, and WireSize agrees with the
// frame length. Decoding in place into a Msg a different frame left
// dirty (every flag set, every slice non-nil) must give the same verdict
// and the same message: the live receive path reuses its Msg that way.
// So must decoding through a pool of dirty buffers of assorted
// capacities, as that path does.
func FuzzWireDecode(f *testing.F) {
	// sampleMsg sets every flag and fills every slice: decoded first, its
	// frame leaves a Msg as dirty as a frame can.
	full := sampleMsg()
	fullFrame := full.Encode(nil)
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
		// Also seed truncations and single-byte corruptions of a valid
		// frame to point the fuzzer at boundary arithmetic.
		if len(seed) > 8 {
			f.Add(seed[:len(seed)/2])
			mut := append([]byte(nil), seed...)
			mut[0] ^= 0x40
			f.Add(mut)
		}
	}
	for _, seed := range nonCanonicalDiffSeeds() {
		if _, err := Decode(seed); err == nil {
			f.Fatalf("non-canonical diff accepted: %x", seed)
		}
		f.Add(seed)
	}
	for _, seed := range offKindPairSeeds() {
		if _, err := Decode(seed); err == nil {
			f.Fatalf("pairs off their kind accepted: %x", seed)
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		var reused Msg
		if err := reused.Decode(fullFrame); err != nil {
			t.Fatal(err)
		}
		if errInPlace := reused.Decode(data); (errInPlace == nil) != (err == nil) {
			t.Fatalf("in-place decode over a dirty Msg says %v, a fresh decode %v", errInPlace, err)
		}
		if err != nil {
			return // rejected input: exactly what corrupt bytes deserve
		}
		if !reused.Equal(&m) {
			t.Fatalf("in-place decode over a dirty Msg kept some of it:\n got %+v\nwant %+v", reused, m)
		}
		var pool twindiff.Pool
		dirtyPool(&pool)
		if err := reused.DecodePooled(data, &pool, new(core.Record)); err != nil || !reused.Equal(&m) {
			t.Fatalf("decode through a dirty pool (%v) differs from a fresh one:\n got %+v\nwant %+v", err, reused, m)
		}
		if got := m.WireSize(); got != len(data) {
			t.Fatalf("accepted frame: WireSize %d != frame length %d", got, len(data))
		}
		re := m.Encode(nil)
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted frame is not canonical:\n in: %x\nout: %x", data, re)
		}
		m2, err := Decode(re)
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if !m2.Equal(&m) {
			t.Fatalf("decode/encode/decode drifted: %+v vs %+v", m, m2)
		}
		// What Decode lets in, the home applies and merges: neither may
		// panic on an accepted diff (given an object large enough).
		for _, od := range append(m.Diffs, ObjDiff{D: m.Diff}) {
			extent := 0
			for start, words := range od.D.Runs() {
				extent = int(start) + len(words)
			}
			if extent > 1<<16 {
				continue
			}
			obj := make([]uint64, extent)
			od.D.Apply(obj)
			merged := make([]uint64, extent)
			twindiff.Merge(od.D, od.D).Apply(merged)
			if !slices.Equal(obj, merged) {
				t.Fatalf("Merge(d, d) != d for accepted diff %+v", od.D)
			}
		}
	})
}
