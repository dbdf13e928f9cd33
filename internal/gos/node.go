package gos

import (
	"fmt"

	"repro/internal/flight"
	"repro/internal/memory"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/twindiff"
	"repro/internal/wire"
)

// Node is one simulated cluster node: the shared protocol state
// (proto.Node) plus the virtual-time daemon that drives it — not a
// process but the inbox's consumer (sim.Queue.Consume): two event
// callbacks, begin and handle, msgProcCost apart, run on whichever stack
// is dispatching events, so serving a frame switches to none.
// The Node itself is the proto.Engine: sends go through the simulated
// interconnect with Hockney costs, local thread handoffs through pooled
// sim queues.
type Node struct {
	*proto.Node
	c *Cluster

	threads []*Thread
	inbox   *sim.Queue
	// cur is the inbox box of the frame being processed, held from begin
	// until Dispatch returns; non-nil means the daemon is busy (quiescence
	// detection). Dispatch may rewrite it (a forwarded request leaves
	// with this node as From), so who names the frame by curKind and
	// curFrom, taken at begin.
	cur      *wire.Msg
	curKind  wire.Kind
	curFrom  memory.NodeID
	handleFn func() // n.handle, bound once: scheduling it allocates nothing
	// applied holds, while a frame is dispatched, the diffs it carries
	// that the handler applies here (see takeApplied).
	applied []twindiff.Diff
}

func newNode(c *Cluster, id memory.NodeID) *Node {
	n := &Node{c: c, inbox: c.net.Inbox(id)}
	n.Node = c.NewNode(id)
	n.Node.Eng = n
	n.Node.Counters = &c.Counters
	n.Node.Pool = &c.pool
	n.handleFn = n.handle
	n.inbox.Consume(n.who, n.begin)
	return n
}

// Send implements proto.Engine: transmit over the simulated network.
func (n *Node) Send(msg wire.Msg, cat stats.Category) {
	if n.On(flight.FrameSend) {
		n.Emit(flight.Event{Kind: flight.FrameSend, Tag: uint8(msg.Kind), Peer: msg.To, Bytes: int32(msg.WireSize())})
	}
	n.c.net.Send(&msg, cat)
}

// ToThread implements proto.Engine: local daemon→thread handoff,
// bypassing the network, through the pooled message-box path (no
// per-send struct boxing allocation).
func (n *Node) ToThread(slot int32, msg wire.Msg) {
	n.threads[slot].reply.Send(n.c.net.AllocMsg(&msg))
}

// msgProcCost is the daemon's per-message software overhead.
const msgProcCost = 2 * sim.Microsecond

// begin is the daemon's first step, scheduled when a frame reaches an idle
// daemon: take the oldest frame off the inbox, spend msgProcCost on it.
//
//dsm:hotpath
func (n *Node) begin() {
	raw, _ := n.inbox.TryRecv()
	m := raw.(*wire.Msg)
	n.cur, n.curKind, n.curFrom = m, m.Kind, m.From
	if n.On(flight.FrameRecv) {
		n.Emit(flight.Event{Kind: flight.FrameRecv, Tag: uint8(m.Kind), Peer: m.From, Bytes: int32(m.WireSize())})
	}
	n.inbox.After(msgProcCost, n.handleFn)
}

// handle is the second step, msgProcCost later: run the protocol handler
// on the frame's box in place, return the diffs it applied to the pool,
// free the box, then take the next frame or go idle.
//
//dsm:hotpath
func (n *Node) handle() {
	n.takeApplied(n.cur)
	n.Dispatch(n.cur)
	for _, d := range n.applied {
		n.Pool.PutDiff(d)
	}
	clear(n.applied)
	n.applied = n.applied[:0]
	n.c.net.FreeMsg(n.cur)
	n.cur = nil
	if n.inbox.Len() > 0 {
		n.begin()
	} else {
		n.inbox.Arm()
	}
}

// takeApplied lists in n.applied the diffs of m that Dispatch will apply
// here, whose last use that is: nothing acknowledges a piggybacked diff,
// and a diff the sync manager forwarded (a DiffMsg with ReplySlot < 0) is
// acked to the manager, not to its buffer's owner. Messages move by
// reference on the sim, so the receiver returns these to the cluster's
// pool. A diff forwarded on is not done with: the DiffMsg in flight shares
// its buffer. Nor is a thread's own DiffMsg: its driver returns it at the
// ack. The list is taken before Dispatch, which decides by the same
// IsHome, since a barrier's release may move homes after applying.
//
//dsm:hotpath
func (n *Node) takeApplied(m *wire.Msg) {
	switch m.Kind {
	case wire.LockRel, wire.BarrierArrive:
		for _, od := range m.Diffs {
			if n.IsHome[od.Obj] {
				n.applied = append(n.applied, od.D)
			}
		}
	case wire.DiffMsg:
		if m.ReplySlot < 0 && n.IsHome[m.Obj] {
			n.applied = append(n.applied, m.Diff)
		}
	}
}

// who names the daemon in a sim.PanicError, with the frame it has in hand.
func (n *Node) who() string {
	if n.cur == nil {
		return fmt.Sprintf("daemon-n%d", n.ID)
	}
	return fmt.Sprintf("daemon-n%d handling %v from node %d", n.ID, n.curKind, n.curFrom)
}
