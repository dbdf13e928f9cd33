package proto

import (
	"fmt"

	"repro/internal/memory"
	"repro/internal/wire"
)

// CheckFrame reports whether a decoded frame names only things that
// exist: every id the handler of msg.Kind (Handle here, or the Driver
// behind ToThread) subscripts a table with must lie inside the sealed
// layout. Objects, locks and barriers are checked against the declared
// counts — a lock or barrier a request is addressed to must moreover be
// managed by this node, a diff must end within its object and a copy be
// as long as its object — nodes against the cluster size (NoNode where the
// protocol sends it: a manager answer or a home-miss hint may know no
// home), and ReplySlot against threads, the number of threads this node
// runs, wherever the slot names a local thread; −1 stands for the daemon
// where a daemon can be the addressee. Header fields the kind does not
// read are not looked at; the piggybacked lists are checked wherever they
// are present. The error names the kind, the sender and the first
// offending field.
//
// A frame from a peer process is outside input: the live engine calls
// this between (*wire.Msg).Decode and CanRoute and ends the run on an
// error. The layout is fixed once the run starts, so the check needs no
// lock; the sim engine, whose messages never leave the process, does not
// call it. msg is only read.
func (n *Node) CheckFrame(msg *wire.Msg, threads int) error {
	field, v := n.strayField(msg, threads)
	if field == "" {
		return nil
	}
	return fmt.Errorf("%v from node %d: %s %d is outside the layout", msg.Kind, msg.From, field, v)
}

// strayField returns the first field of msg that CheckFrame rejects and
// its value, or "".
func (n *Node) strayField(msg *wire.Msg, threads int) (string, int64) {
	s := n.S
	node := func(id memory.NodeID) bool { return id >= 0 && int(id) < s.Nodes }
	object := func(id memory.ObjectID) bool { return int64(id) < int64(len(s.ObjWords)) }
	// mine: id is a lock (or barrier) of the layout that this node manages.
	mine := func(homes []memory.NodeID, id uint32) bool { return int64(id) < int64(len(homes)) && homes[id] == n.ID }
	if !node(msg.From) {
		return "From", int64(msg.From)
	}

	// The header fields the kind's handler reads.
	var (
		obj      bool // Obj indexes the object tables
		home     bool // Home names a node ...
		homeless bool // ... or may be NoNode
		request  bool // ReplyNode/ReplySlot name the thread to answer
		reply    bool // ReplySlot names a thread of this node
		minSlot  = int32(0)
	)
	switch msg.Kind {
	case wire.ObjReq, wire.MgrQuery:
		obj, request = true, true
	case wire.ObjReply:
		obj, home, reply = true, true, true
	case wire.DiffMsg:
		// Home carries the writer; a sync manager's daemon forwarding a
		// piggybacked diff asks for the ack itself (slot −1).
		obj, home, request, minSlot = true, true, true, -1
	case wire.DiffAck:
		obj, reply = msg.ReplySlot >= 0, msg.ReplySlot >= 0
		if !reply {
			// Addressed to this daemon: it resumes the lock or barrier the
			// tag (id+1) names, which must be one it manages.
			switch {
			case msg.ReplySlot != -1:
				return "ReplySlot", int64(msg.ReplySlot)
			case msg.Lock > 0 && !mine(s.LockHome, msg.Lock-1):
				return "Lock tag", int64(msg.Lock)
			case msg.Lock == 0 && (msg.Barrier == 0 || !mine(s.BarHome, msg.Barrier-1)):
				return "Barrier tag", int64(msg.Barrier)
			}
		}
	case wire.LockReq:
		request = true
		fallthrough
	case wire.LockRel:
		if !mine(s.LockHome, msg.Lock) {
			return "Lock", int64(msg.Lock)
		}
	case wire.LockGrant:
		reply = true
		if int64(msg.Lock) >= int64(len(s.LockHome)) {
			return "Lock", int64(msg.Lock)
		}
	case wire.BarrierArrive:
		request = true
		if !mine(s.BarHome, msg.Barrier) {
			return "Barrier", int64(msg.Barrier)
		}
	case wire.BarrierGo:
		if int64(msg.Barrier) >= int64(len(s.BarHome)) {
			return "Barrier", int64(msg.Barrier)
		}
	case wire.MgrUpdate, wire.HomeBcast, wire.PtrUpdate:
		obj, home = true, true
	case wire.MgrReply, wire.HomeMiss:
		obj, home, homeless, reply = true, true, true, true
	default:
		return "Kind", int64(msg.Kind)
	}

	switch {
	case obj && !object(msg.Obj):
		return "Obj", int64(msg.Obj)
	case home && !node(msg.Home) && !(homeless && msg.Home == memory.NoNode):
		return "Home", int64(msg.Home)
	case request && !node(msg.ReplyNode):
		return "ReplyNode", int64(msg.ReplyNode)
	case request && (msg.ReplySlot < minSlot || msg.ReplyNode == n.ID && int(msg.ReplySlot) >= threads),
		reply && (msg.ReplySlot < 0 || int(msg.ReplySlot) >= threads):
		return "ReplySlot", int64(msg.ReplySlot)
	}
	// msg.Obj is declared by now: a diff must fit it, a copy be all of it.
	switch {
	case msg.Kind == wire.DiffMsg && msg.Diff.End() > s.ObjWords[msg.Obj]:
		return "Diff end", int64(msg.Diff.End())
	case msg.Kind == wire.ObjReply && len(msg.Data) != s.ObjWords[msg.Obj]:
		return "Data length", int64(len(msg.Data))
	}
	for _, od := range msg.Diffs {
		if !object(od.Obj) {
			return "piggybacked diff Obj", int64(od.Obj)
		}
		if end := od.D.End(); end > s.ObjWords[od.Obj] {
			return "piggybacked diff end", int64(end)
		}
	}
	what, who := "report", "Writer"
	if msg.Kind == wire.BarrierGo {
		what, who = "assign", "Home"
	}
	for _, p := range msg.Pairs {
		if !object(p.Obj) {
			return what + " Obj", int64(p.Obj)
		}
		if !node(p.Node) {
			return what + " " + who, int64(p.Node)
		}
	}
	return "", 0
}
