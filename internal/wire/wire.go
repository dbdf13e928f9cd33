// Package wire defines the DSM protocol messages and their binary
// encoding. Every message exchanged by the simulated cluster is encodable;
// the encoded length is what the Hockney network model charges, and in
// debug mode every delivery round-trips through Encode/Decode to keep the
// codec honest. Object data and diff runs cross as one little-endian copy
// of their words (twindiff.AppendWords, twindiff.ReadWords).
//
// Who owns a message's payloads — Data, Diff and each of Diffs — depends
// on the engine. The virtual-time engine delivers a message by reference:
// the receiver shares the sender's buffers, so only their producer ever
// returns them to a pool (see twindiff). The live engine copies: Send
// encodes, after which the sender still owns its buffers (it returns a
// served fault-in's snapshot to its pool; a flushed diff waits for its
// ack), and the receiver decodes with DecodePooled into buffers drawn
// from its own node's pool, which it owns: it returns a handled diff, and
// keeps a fault-in reply's Data as its cached copy. A migrating reply's
// Rec follows the same split: the virtual-time receiver reads the record
// core.State.Migrate filled inside the sender's demoted State, which the
// sender leaves alone until the record has been read; the live decoder
// fills a record the receiver owns.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/memory"
	"repro/internal/twindiff"
)

// Kind discriminates protocol messages.
type Kind uint8

const (
	// ObjReq asks the (believed) home for a copy of Obj. Carries Hops,
	// incremented at each forwarding-pointer redirection.
	ObjReq Kind = iota
	// ObjReply returns the object payload; Migrate set means the reply
	// also transfers home ownership (and Rec, the migration state).
	ObjReply
	// DiffMsg propagates one object's diff to its home at release time.
	DiffMsg
	// DiffAck confirms a diff application (release completes only after
	// all acks, preserving LRC's release visibility guarantee).
	DiffAck
	// LockReq / LockGrant / LockRel implement distributed locks. LockRel
	// may piggyback diffs for objects homed at the lock manager's node.
	LockReq
	LockGrant
	LockRel
	// BarrierArrive / BarrierGo implement barriers; arrive may piggyback
	// diffs homed at the manager and Jiajia write reports, go may carry
	// Jiajia home reassignments.
	BarrierArrive
	BarrierGo
	// MgrUpdate / MgrQuery / MgrReply implement the home-manager location
	// mechanism (§3.2).
	MgrUpdate
	MgrQuery
	MgrReply
	// HomeBcast announces a new home to all nodes (broadcast mechanism).
	HomeBcast
	// HomeMiss tells a requester it hit an obsolete home (manager and
	// broadcast mechanisms; the forwarding-pointer mechanism never
	// misses, §3.2).
	HomeMiss
	// PtrUpdate short-circuits a forwarding chain (path compression, an
	// extension beyond the paper): after a redirected fault-in, the
	// requester tells its stale entry point where the home really is.
	PtrUpdate
	numKinds
)

var kindNames = [numKinds]string{
	"ObjReq", "ObjReply", "Diff", "DiffAck", "LockReq", "LockGrant",
	"LockRel", "BarrierArrive", "BarrierGo", "MgrUpdate", "MgrQuery",
	"MgrReply", "HomeBcast", "HomeMiss", "PtrUpdate",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// ObjDiff pairs an object with a diff, for piggybacked flushes.
type ObjDiff struct {
	Obj memory.ObjectID
	D   twindiff.Diff
}

// Pair is one (object, node) entry of a barrier message: on BarrierArrive
// a Jiajia write report (Node wrote Obj during the ending interval), on
// BarrierGo a Jiajia home reassignment (Node is Obj's new home).
type Pair struct {
	Obj  memory.ObjectID
	Node memory.NodeID
}

// Msg is the protocol message. A single fat struct (rather than one type
// per kind) keeps the codec and the simulated delivery path simple; only
// the fields relevant to Kind are populated.
//
// Every hop copies it at least once, so its layout is kept small (136
// bytes on 64-bit): the header is ordered by field size, leaving no
// padding, and the rare parts are a pointer and one shared slice. Rec is
// non-nil exactly on a reply that migrates the home (flag bit 2 on the
// wire); the sender keeps the record it points to unchanged until the
// receiver has read it (core.State.Migrate fills one inside the demoted
// State, which the old home does not write while the record is in
// flight), and a decoded Rec points at the record the decoder was given. Pairs are BarrierArrive's write reports or BarrierGo's home
// reassignments; Encode writes them in the count slot of their kind, and
// Decode rejects pairs on any other kind.
type Msg struct {
	Kind      Kind
	Migrate   bool // ObjReply transfers home ownership
	From, To  memory.NodeID
	ReplyNode memory.NodeID // node hosting the requesting thread
	Home      memory.NodeID // home being announced/confirmed
	Hops      uint16        // forwarding redirections accumulated
	Obj       memory.ObjectID
	ReplySlot int32 // thread slot on ReplyNode
	Lock      uint32
	Barrier   uint32
	Seq       uint32 // request sequence, for retries and tracing

	Data  []uint64      // object payload
	Diff  twindiff.Diff // single-object diff
	Diffs []ObjDiff     // piggybacked diffs
	Rec   *core.Record  // migration state transfer
	Pairs []Pair        // write reports or home reassignments
}

const headerSize = 1 + 2 + 2 + 4 + 2 + 4 + 2 + 4 + 4 + 2 + 1 + 4 // = 32

// WireSize returns the exact encoded length in bytes without encoding. It
// takes a pointer: sizing a message on every simulated send copies none
// of it.
func (m *Msg) WireSize() int {
	n := headerSize
	n += 4 + 8*len(m.Data)
	n += m.Diff.WireSize()
	n += 4
	for _, od := range m.Diffs {
		n += 4 + od.D.WireSize()
	}
	if m.Rec != nil {
		n += 24
	}
	n += 4 + 4 + 6*len(m.Pairs)
	return n
}

// Equal reports whether m and o are the same message: every header field,
// the record Rec points to (bit for bit), and the contents of every
// slice, a nil slice equal to an empty one.
// A message equals its own round trip through Encode and Decode exactly
// when the codec carries all of it.
func (m *Msg) Equal(o *Msg) bool {
	return m.Kind == o.Kind && m.From == o.From && m.To == o.To && m.Obj == o.Obj &&
		m.ReplyNode == o.ReplyNode && m.ReplySlot == o.ReplySlot && m.Hops == o.Hops &&
		m.Lock == o.Lock && m.Barrier == o.Barrier && m.Home == o.Home &&
		m.Migrate == o.Migrate && m.Seq == o.Seq &&
		sameRecord(m.Rec, o.Rec) &&
		slices.Equal(m.Data, o.Data) && m.Diff.Equal(o.Diff) &&
		slices.EqualFunc(m.Diffs, o.Diffs, func(a, b ObjDiff) bool { return a.Obj == b.Obj && a.D.Equal(b.D) }) &&
		slices.Equal(m.Pairs, o.Pairs)
}

// sameRecord compares two records as the codec carries them: nil only
// to nil, floats by their bits (a NaN round-trips as itself).
func sameRecord(a, b *core.Record) bool {
	if a == nil || b == nil {
		return a == b
	}
	return math.Float64bits(a.TBase) == math.Float64bits(b.TBase) && a.Epoch == b.Epoch &&
		math.Float64bits(a.AvgDiff) == math.Float64bits(b.AvgDiff) && a.DiffObs == b.DiffObs
}

// Encode appends the wire form of m to buf. It takes a pointer: encoding
// a message on every live send copies none of it.
func (m *Msg) Encode(buf []byte) []byte {
	le := binary.LittleEndian
	buf = append(buf, byte(m.Kind))
	buf = le.AppendUint16(buf, uint16(m.From))
	buf = le.AppendUint16(buf, uint16(m.To))
	buf = le.AppendUint32(buf, uint32(m.Obj))
	buf = le.AppendUint16(buf, uint16(m.ReplyNode))
	buf = le.AppendUint32(buf, uint32(m.ReplySlot))
	buf = le.AppendUint16(buf, m.Hops)
	buf = le.AppendUint32(buf, m.Lock)
	buf = le.AppendUint32(buf, m.Barrier)
	buf = le.AppendUint16(buf, uint16(m.Home))
	var flags byte
	if m.Migrate {
		flags |= 1
	}
	if m.Rec != nil {
		flags |= 2
	}
	buf = append(buf, flags)
	buf = le.AppendUint32(buf, m.Seq)

	buf = le.AppendUint32(buf, uint32(len(m.Data)))
	buf = twindiff.AppendWords(buf, m.Data)
	buf = m.Diff.Encode(buf)
	buf = le.AppendUint32(buf, uint32(len(m.Diffs)))
	for _, od := range m.Diffs {
		buf = le.AppendUint32(buf, uint32(od.Obj))
		buf = od.D.Encode(buf)
	}
	if r := m.Rec; r != nil {
		buf = le.AppendUint64(buf, math.Float64bits(r.TBase))
		buf = le.AppendUint32(buf, uint32(r.Epoch))
		buf = le.AppendUint64(buf, math.Float64bits(r.AvgDiff))
		buf = le.AppendUint32(buf, uint32(r.DiffObs))
	}
	// Two counts, the reassignments' then the reports': a BarrierGo's
	// pairs go in the first, any other kind's in the second.
	if m.Kind == BarrierGo {
		buf = le.AppendUint32(buf, uint32(len(m.Pairs)))
		buf = m.appendPairs(buf)
		buf = le.AppendUint32(buf, 0)
	} else {
		buf = le.AppendUint32(buf, 0)
		buf = le.AppendUint32(buf, uint32(len(m.Pairs)))
		buf = m.appendPairs(buf)
	}
	return buf
}

func (m *Msg) appendPairs(buf []byte) []byte {
	for _, p := range m.Pairs {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(p.Obj))
		buf = binary.LittleEndian.AppendUint16(buf, uint16(p.Node))
	}
	return buf
}

// PeekFrom reads the sender out of an encoded frame's header without
// decoding the rest: the From field Encode writes at bytes [1:3]. ok is
// false for a frame too short to hold it. The frame need not be a valid
// message; callers that must trust From run Decode.
func PeekFrom(frame []byte) (from memory.NodeID, ok bool) {
	if len(frame) < 3 {
		return 0, false
	}
	return memory.NodeID(int16(binary.LittleEndian.Uint16(frame[1:]))), true
}

// Decode parses a message into a new Msg: (*Msg).Decode for a caller
// that has none to reuse. The benchmark's codec probe times it.
func Decode(buf []byte) (m Msg, err error) {
	err = m.Decode(buf)
	return m, err
}

// Decode parses buf into m in place: DecodePooled without a pool or a
// record, so the payloads land in fresh exact-size slices and a migrating
// reply's record in a new Record.
func (m *Msg) Decode(buf []byte) error { return m.DecodePooled(buf, nil, nil) }

// DecodePooled parses buf into m in place, so a receive path that owns
// one Msg decodes every frame into it without copying a message out.
// Every field of m is reset first: nothing of the previous frame
// survives, and m drops its old slices and record without writing
// through them — except the array behind Diffs, which the piggybacked
// diffs are decoded into, so a receive path that hands its Msg the same
// array every frame decodes them without allocating. The payloads —
// Data, Diff and each piggybacked diff — are one copy each into buffers
// drawn from pool (nil pool = plain allocation), and the caller owns
// them: it may keep them, or return them to pool at their last use. A
// migrating reply's record is written to *rec, and m.Rec points at it
// (nil rec = a new Record). It returns an error on any truncation or a
// trailing-garbage mismatch, leaving m partly filled.
func (m *Msg) DecodePooled(buf []byte, pool *twindiff.Pool, rec *core.Record) error {
	diffs := m.Diffs[:0]
	*m = Msg{}
	if len(buf) < headerSize {
		return fmt.Errorf("wire: truncated header (%d bytes)", len(buf))
	}
	le := binary.LittleEndian
	m.Kind = Kind(buf[0])
	if m.Kind >= numKinds {
		return fmt.Errorf("wire: unknown kind %d", buf[0])
	}
	m.From, _ = PeekFrom(buf)
	m.To = memory.NodeID(int16(le.Uint16(buf[3:])))
	m.Obj = memory.ObjectID(le.Uint32(buf[5:]))
	m.ReplyNode = memory.NodeID(int16(le.Uint16(buf[9:])))
	m.ReplySlot = int32(le.Uint32(buf[11:]))
	m.Hops = le.Uint16(buf[15:])
	m.Lock = le.Uint32(buf[17:])
	m.Barrier = le.Uint32(buf[21:])
	m.Home = memory.NodeID(int16(le.Uint16(buf[25:])))
	flags := buf[27]
	if flags&^3 != 0 {
		return fmt.Errorf("wire: unknown flag bits %#x", flags&^3)
	}
	m.Migrate = flags&1 != 0
	hasRec := flags&2 != 0
	m.Seq = le.Uint32(buf[28:])
	off := headerSize

	need := func(n int) error {
		if len(buf) < off+n {
			return fmt.Errorf("wire: truncated at offset %d (need %d of %d)", off, n, len(buf))
		}
		return nil
	}

	if err := need(4); err != nil {
		return err
	}
	nd := int(le.Uint32(buf[off:]))
	off += 4
	if err := need(8 * nd); err != nil {
		return err
	}
	if nd > 0 {
		m.Data = pool.GetWords(nd)
		twindiff.ReadWords(m.Data, buf[off:])
		off += 8 * nd
	}
	d, n, err := twindiff.DecodeInto(pool, buf[off:])
	if err != nil {
		return fmt.Errorf("wire: diff: %w", err)
	}
	m.Diff = d
	off += n

	if err := need(4); err != nil {
		return err
	}
	nds := int(le.Uint32(buf[off:]))
	off += 4
	if nds > 0 {
		m.Diffs = diffs
	}
	for i := 0; i < nds; i++ {
		if err := need(4); err != nil {
			return err
		}
		obj := memory.ObjectID(le.Uint32(buf[off:]))
		off += 4
		d, n, err := twindiff.DecodeInto(pool, buf[off:])
		if err != nil {
			return fmt.Errorf("wire: piggyback diff %d: %w", i, err)
		}
		off += n
		m.Diffs = append(m.Diffs, ObjDiff{Obj: obj, D: d})
	}
	if hasRec {
		if err := need(24); err != nil {
			return err
		}
		if rec == nil {
			rec = new(core.Record)
		}
		*rec = core.Record{
			TBase:   math.Float64frombits(le.Uint64(buf[off:])),
			Epoch:   int32(le.Uint32(buf[off+8:])),
			AvgDiff: math.Float64frombits(le.Uint64(buf[off+12:])),
			DiffObs: int32(le.Uint32(buf[off+20:])),
		}
		m.Rec = rec
		off += 24
	}
	// The reassignments' count, then the reports'; only the slot of the
	// frame's own kind may be nonzero.
	for _, carrier := range [2]Kind{BarrierGo, BarrierArrive} {
		if err := need(4); err != nil {
			return err
		}
		np := int(le.Uint32(buf[off:]))
		off += 4
		if np == 0 {
			continue
		}
		if m.Kind != carrier {
			return fmt.Errorf("wire: %d pairs of a %v on a %v", np, carrier, m.Kind)
		}
		if err := need(6 * np); err != nil {
			return err
		}
		m.Pairs = make([]Pair, np)
		for i := range m.Pairs {
			m.Pairs[i] = Pair{
				Obj:  memory.ObjectID(le.Uint32(buf[off:])),
				Node: memory.NodeID(int16(le.Uint16(buf[off+4:]))),
			}
			off += 6
		}
	}
	if off != len(buf) {
		return fmt.Errorf("wire: %d trailing bytes", len(buf)-off)
	}
	return nil
}
