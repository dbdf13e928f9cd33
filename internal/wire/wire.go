// Package wire defines the DSM protocol messages and their binary
// encoding. Every message exchanged by the simulated cluster is encodable;
// the encoded length is what the Hockney network model charges, and in
// debug mode every delivery round-trips through Encode/Decode to keep the
// codec honest.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"

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

// WireSize returns the exact encoded length in bytes without encoding.
func (m Msg) WireSize() int {
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

// Encode appends the wire form of m to buf.
func (m Msg) Encode(buf []byte) []byte {
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
	for _, w := range m.Data {
		buf = le.AppendUint64(buf, w)
	}
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

// Decode parses a message. It returns an error on any truncation or a
// trailing-garbage mismatch.
func Decode(buf []byte) (Msg, error) {
	var m Msg
	if len(buf) < headerSize {
		return m, fmt.Errorf("wire: truncated header (%d bytes)", len(buf))
	}
	le := binary.LittleEndian
	m.Kind = Kind(buf[0])
	if m.Kind >= numKinds {
		return m, fmt.Errorf("wire: unknown kind %d", buf[0])
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
		return m, fmt.Errorf("wire: unknown flag bits %#x", flags&^3)
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
		return m, err
	}
	nd := int(le.Uint32(buf[off:]))
	off += 4
	if err := need(8 * nd); err != nil {
		return m, err
	}
	if nd > 0 {
		m.Data = make([]uint64, nd)
		for i := range m.Data {
			m.Data[i] = le.Uint64(buf[off:])
			off += 8
		}
	}
	d, n, err := twindiff.Decode(buf[off:])
	if err != nil {
		return m, fmt.Errorf("wire: diff: %w", err)
	}
	m.Diff = d
	off += n

	if err := need(4); err != nil {
		return m, err
	}
	nds := int(le.Uint32(buf[off:]))
	off += 4
	for i := 0; i < nds; i++ {
		if err := need(4); err != nil {
			return m, err
		}
		obj := memory.ObjectID(le.Uint32(buf[off:]))
		off += 4
		d, n, err := twindiff.Decode(buf[off:])
		if err != nil {
			return m, fmt.Errorf("wire: piggyback diff %d: %w", i, err)
		}
		off += n
		m.Diffs = append(m.Diffs, ObjDiff{Obj: obj, D: d})
	}
	if m.HasRec {
		if err := need(24); err != nil {
			return m, err
		}
		m.Rec.TBase = math.Float64frombits(le.Uint64(buf[off:]))
		m.Rec.Epoch = int32(le.Uint32(buf[off+8:]))
		m.Rec.AvgDiff = math.Float64frombits(le.Uint64(buf[off+12:]))
		m.Rec.DiffObs = int32(le.Uint32(buf[off+20:]))
		off += 24
	}
	if err := need(4); err != nil {
		return m, err
	}
	na := int(le.Uint32(buf[off:]))
	off += 4
	if err := need(6 * na); err != nil {
		return m, err
	}
	for i := 0; i < na; i++ {
		m.Assigns = append(m.Assigns, HomeAssign{
			Obj:  memory.ObjectID(le.Uint32(buf[off:])),
			Home: memory.NodeID(int16(le.Uint16(buf[off+4:]))),
		})
		off += 6
	}
	if err := need(4); err != nil {
		return m, err
	}
	nr := int(le.Uint32(buf[off:]))
	off += 4
	if err := need(6 * nr); err != nil {
		return m, err
	}
	for i := 0; i < nr; i++ {
		m.Reports = append(m.Reports, WriteReport{
			Obj:    memory.ObjectID(le.Uint32(buf[off:])),
			Writer: memory.NodeID(int16(le.Uint16(buf[off+4:]))),
		})
		off += 6
	}
	if off != len(buf) {
		return m, fmt.Errorf("wire: %d trailing bytes", len(buf)-off)
	}
	return m, nil
}
