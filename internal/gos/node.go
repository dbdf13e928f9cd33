package gos

import (
	"fmt"

	"repro/internal/flight"
	"repro/internal/memory"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/wire"
)

// Node is one simulated cluster node: the shared protocol state
// (proto.Node) plus the virtual-time daemon that drives it. The Node
// itself is the proto.Engine: sends go through the simulated
// interconnect with Hockney costs, local thread handoffs through pooled
// sim queues.
type Node struct {
	*proto.Node
	c *Cluster

	threads []*Thread
	inbox   *sim.Queue
	busy    bool // daemon is processing a message (quiescence detection)
}

func newNode(c *Cluster, id memory.NodeID) *Node {
	n := &Node{c: c, inbox: c.net.Inbox(id)}
	n.Node = c.NewNode(id)
	n.Node.Eng = n
	n.Node.Counters = &c.Counters
	return n
}

// Send implements proto.Engine: transmit over the simulated network.
func (n *Node) Send(msg wire.Msg, cat stats.Category) {
	if n.On(flight.FrameSend) {
		n.Emit(flight.Event{Kind: flight.FrameSend, Tag: uint8(cat), Peer: msg.To, Bytes: int32(msg.WireSize())})
	}
	n.c.net.Send(msg, cat)
}

// ToThread implements proto.Engine: local daemon→thread handoff,
// bypassing the network, through the pooled message-box path (no
// per-send struct boxing allocation).
func (n *Node) ToThread(slot int32, msg wire.Msg) {
	n.threads[slot].reply.Send(n.c.net.AllocMsg(msg))
}

// Broadcast implements proto.Engine: one message to every node but the
// sender, charged as N−1 point-to-point sends.
func (n *Node) Broadcast(msg wire.Msg, cat stats.Category) {
	if n.On(flight.FrameSend) {
		n.Emit(flight.Event{Kind: flight.FrameSend, Tag: uint8(cat), Peer: memory.NoNode, Bytes: int32(msg.WireSize())})
	}
	n.c.net.Broadcast(msg, cat)
}

func (n *Node) spawnDaemon() {
	n.c.env.Spawn(fmt.Sprintf("daemon-n%d", n.ID), n.daemon)
}

// msgProcCost is the daemon's per-message software overhead.
const msgProcCost = 2 * sim.Microsecond

func (n *Node) daemon(p *sim.Proc) {
	for {
		raw := n.inbox.Recv(p)
		pm, ok := raw.(*wire.Msg)
		if !ok {
			if _, quit := raw.(quitMsg); quit {
				return
			}
			panic(fmt.Sprintf("gos: daemon %d: stray token %T", n.ID, raw))
		}
		n.busy = true
		msg := *pm
		n.c.net.FreeMsg(pm)
		if n.On(flight.FrameRecv) {
			n.Emit(flight.Event{Kind: flight.FrameRecv, Peer: msg.From, Bytes: int32(msg.WireSize())})
		}
		p.Sleep(msgProcCost)
		n.Handle(msg)
		n.busy = false
	}
}
