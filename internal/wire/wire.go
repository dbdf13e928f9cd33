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
// keeps a fault-in reply's Data as its cached copy.
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

// HomeAssign reassigns an object's home (Jiajia barrier-release payload).
type HomeAssign struct {
	Obj  memory.ObjectID
	Home memory.NodeID
}

// WriteReport tells the barrier manager that Writer updated Obj during
// the ending interval (Jiajia single-writer detection).
type WriteReport struct {
	Obj    memory.ObjectID
	Writer memory.NodeID
}

// Msg is the protocol message. A single fat struct (rather than one type
// per kind) keeps the codec and the simulated delivery path simple; only
// the fields relevant to Kind are populated.
type Msg struct {
	Kind      Kind
	From, To  memory.NodeID
	Obj       memory.ObjectID
	ReplyNode memory.NodeID // node hosting the requesting thread
	ReplySlot int32         // thread slot on ReplyNode
	Hops      uint16        // forwarding redirections accumulated
	Lock      uint32
	Barrier   uint32
	Home      memory.NodeID // home being announced/confirmed
	Migrate   bool          // ObjReply transfers home ownership
	HasRec    bool
	Seq       uint32 // request sequence, for retries and tracing

	Data    []uint64      // object payload
	Diff    twindiff.Diff // single-object diff
	Diffs   []ObjDiff     // piggybacked diffs
	Rec     core.Record   // migration state transfer
	Assigns []HomeAssign
	Reports []WriteReport
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
	if m.HasRec {
		n += 24
	}
	n += 4 + 6*len(m.Assigns)
	n += 4 + 6*len(m.Reports)
	return n
}

// Equal reports whether m and o are the same message: every header field,
// Rec, and the contents of every slice, a nil slice equal to an empty one.
// A message equals its own round trip through Encode and Decode exactly
// when the codec carries all of it.
func (m *Msg) Equal(o *Msg) bool {
	return m.Kind == o.Kind && m.From == o.From && m.To == o.To && m.Obj == o.Obj &&
		m.ReplyNode == o.ReplyNode && m.ReplySlot == o.ReplySlot && m.Hops == o.Hops &&
		m.Lock == o.Lock && m.Barrier == o.Barrier && m.Home == o.Home &&
		m.Migrate == o.Migrate && m.HasRec == o.HasRec && m.Seq == o.Seq &&
		m.Rec == o.Rec &&
		slices.Equal(m.Data, o.Data) && m.Diff.Equal(o.Diff) &&
		slices.EqualFunc(m.Diffs, o.Diffs, func(a, b ObjDiff) bool { return a.Obj == b.Obj && a.D.Equal(b.D) }) &&
		slices.Equal(m.Assigns, o.Assigns) && slices.Equal(m.Reports, o.Reports)
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
	if m.HasRec {
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
	if m.HasRec {
		buf = le.AppendUint64(buf, math.Float64bits(m.Rec.TBase))
		buf = le.AppendUint32(buf, uint32(m.Rec.Epoch))
		buf = le.AppendUint64(buf, math.Float64bits(m.Rec.AvgDiff))
		buf = le.AppendUint32(buf, uint32(m.Rec.DiffObs))
	}
	buf = le.AppendUint32(buf, uint32(len(m.Assigns)))
	for _, a := range m.Assigns {
		buf = le.AppendUint32(buf, uint32(a.Obj))
		buf = le.AppendUint16(buf, uint16(a.Home))
	}
	buf = le.AppendUint32(buf, uint32(len(m.Reports)))
	for _, r := range m.Reports {
		buf = le.AppendUint32(buf, uint32(r.Obj))
		buf = le.AppendUint16(buf, uint16(r.Writer))
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

// Decode parses buf into m in place: DecodePooled without a pool, so the
// payloads land in fresh exact-size slices.
func (m *Msg) Decode(buf []byte) error { return m.DecodePooled(buf, nil) }

// DecodePooled parses buf into m in place, so a receive path that owns
// one Msg decodes every frame into it without copying a message out.
// Every field of m is reset first: nothing of the previous frame
// survives, and m drops its old slices without writing through them. The
// payloads — Data, Diff and each piggybacked diff — are one copy each
// into buffers drawn from pool (nil pool = plain allocation), and the
// caller owns them: it may keep them, or return them to pool at their
// last use. It returns an error on any truncation or a trailing-garbage
// mismatch, leaving m partly filled.
func (m *Msg) DecodePooled(buf []byte, pool *twindiff.Pool) error {
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
	m.HasRec = flags&2 != 0
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
	if m.HasRec {
		if err := need(24); err != nil {
			return err
		}
		m.Rec.TBase = math.Float64frombits(le.Uint64(buf[off:]))
		m.Rec.Epoch = int32(le.Uint32(buf[off+8:]))
		m.Rec.AvgDiff = math.Float64frombits(le.Uint64(buf[off+12:]))
		m.Rec.DiffObs = int32(le.Uint32(buf[off+20:]))
		off += 24
	}
	if err := need(4); err != nil {
		return err
	}
	na := int(le.Uint32(buf[off:]))
	off += 4
	if err := need(6 * na); err != nil {
		return err
	}
	for i := 0; i < na; i++ {
		m.Assigns = append(m.Assigns, HomeAssign{
			Obj:  memory.ObjectID(le.Uint32(buf[off:])),
			Home: memory.NodeID(int16(le.Uint16(buf[off+4:]))),
		})
		off += 6
	}
	if err := need(4); err != nil {
		return err
	}
	nr := int(le.Uint32(buf[off:]))
	off += 4
	if err := need(6 * nr); err != nil {
		return err
	}
	for i := 0; i < nr; i++ {
		m.Reports = append(m.Reports, WriteReport{
			Obj:    memory.ObjectID(le.Uint32(buf[off:])),
			Writer: memory.NodeID(int16(le.Uint16(buf[off+4:]))),
		})
		off += 6
	}
	if off != len(buf) {
		return fmt.Errorf("wire: %d trailing bytes", len(buf)-off)
	}
	return nil
}
