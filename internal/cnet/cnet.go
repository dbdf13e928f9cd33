// Package cnet is the simulated cluster interconnect: point-to-point
// message delivery between node daemons with Hockney-model latency,
// per-category statistics, and optional wire-codec verification on every
// delivery. It stands in for the paper's Fast Ethernet switch.
package cnet

import (
	"fmt"

	"repro/internal/hockney"
	"repro/internal/memory"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/wire"
)

// Config parameterizes the interconnect.
type Config struct {
	// Model is the Hockney point-to-point cost model.
	Model hockney.Model
	// Jitter adds a deterministic, per-message pseudo-random delivery
	// perturbation in [0, Jitter). Real switches exhibit service-time
	// variance; a perfectly symmetric simulation produces artificial
	// lock-step arrival orders (e.g. every object's "last diff of the
	// interval" coming from the same node, which would pile all migrated
	// homes onto one machine). The perturbation is a hash of
	// (src, dst, message#), so runs remain exactly reproducible. FIFO
	// per pair is still enforced after jitter.
	Jitter sim.Time
	// DebugCheck round-trips every message through Encode/Decode and
	// panics when the decoded message differs from the one sent (its
	// encoded length, a header field, Rec or a slice's contents). On by
	// default in tests, off in large sweeps.
	DebugCheck bool
}

// Network connects n node daemons. Inbox(i) is the delivery queue of node
// i's protocol daemon; all sends are asynchronous with Hockney latency.
//
// Messages travel through queues as *wire.Msg drawn from a freelist:
// boxing a pointer into the queue's `any` slot is allocation-free, whereas
// boxing the fat Msg struct would heap-allocate a copy per hop. A sent
// message is copied once, into its box; the receiver reads it in place and
// returns the box with FreeMsg when it is done with it.
type Network struct {
	env      *sim.Env
	cfg      Config
	inboxes  []*sim.Queue
	Counters *stats.Counters
	sent     uint64
	inflight int
	// lastArrival enforces FIFO per (src,dst) pair, as TCP would: a large
	// message cannot be overtaken by a smaller one sent later.
	lastArrival [][]sim.Time
	msgPool     []*wire.Msg
	scratch     []byte   // reused encode buffer for DebugCheck verification
	decoded     wire.Msg // reused decode target for DebugCheck verification
}

// New builds a network of n nodes recording into counters.
func New(env *sim.Env, cfg Config, n int, counters *stats.Counters) *Network {
	nw := &Network{env: env, cfg: cfg, Counters: counters}
	for i := 0; i < n; i++ {
		nw.inboxes = append(nw.inboxes, env.NewQueue(fmt.Sprintf("inbox%d", i)))
		nw.lastArrival = append(nw.lastArrival, make([]sim.Time, n))
	}
	return nw
}

// AllocMsg returns a message box holding a copy of *msg, drawn from the
// freelist. Use it when enqueueing a message on any sim queue; the
// receiver returns the box with FreeMsg.
//
//dsm:hotpath
func (n *Network) AllocMsg(msg *wire.Msg) *wire.Msg {
	var m *wire.Msg
	if k := len(n.msgPool); k > 0 {
		m = n.msgPool[k-1]
		n.msgPool[k-1] = nil
		n.msgPool = n.msgPool[:k-1]
	} else {
		m = new(wire.Msg)
	}
	*m = *msg
	return m
}

// FreeMsg returns a message box to the freelist. The caller must be done
// with the box; it is reused on the next AllocMsg (the slices it
// referenced are not touched, only the struct).
func (n *Network) FreeMsg(m *wire.Msg) {
	n.msgPool = append(n.msgPool, m)
}

// Inbox returns node id's delivery queue.
func (n *Network) Inbox(id memory.NodeID) *sim.Queue { return n.inboxes[id] }

// Send transmits *msg from msg.From to msg.To, recording it under cat.
// Delivery is an event at now + t(wireSize). Same-node sends are a
// protocol bug: local interactions must bypass the network entirely
// ("accesses at the home node never incur communication overhead", §1).
// Send keeps no reference to msg: what it delivers is a pooled copy.
//
//dsm:hotpath
func (n *Network) Send(msg *wire.Msg, cat stats.Category) {
	if msg.From == msg.To {
		panic(fmt.Sprintf("cnet: same-node send of %v on node %d", msg.Kind, msg.From))
	}
	if msg.To < 0 || int(msg.To) >= len(n.inboxes) {
		panic(fmt.Sprintf("cnet: send to invalid node %d", msg.To))
	}
	size := msg.WireSize()
	if n.cfg.DebugCheck {
		n.verify(msg, size)
	}
	n.Counters.Record(cat, size)
	n.sent++
	n.inflight++
	arrival := n.env.Now() + n.cfg.Model.Time(size) + n.jitter(msg.From, msg.To)
	if last := n.lastArrival[msg.From][msg.To]; arrival < last {
		arrival = last // FIFO per pair
	}
	n.lastArrival[msg.From][msg.To] = arrival
	// Allocation-free delivery: the kernel enqueues a pooled message box
	// on the inbox at arrival time and decrements the in-flight counter;
	// no closure and no struct boxing.
	n.env.DeliverAt(arrival-n.env.Now(), n.inboxes[msg.To], n.AllocMsg(msg), &n.inflight)
}

// InFlight reports messages sent but not yet delivered to an inbox.
func (n *Network) InFlight() int { return n.inflight }

// jitter returns the deterministic delivery perturbation for the current
// message (splitmix64 over src, dst and the global message counter).
func (n *Network) jitter(from, to memory.NodeID) sim.Time {
	if n.cfg.Jitter <= 0 {
		return 0
	}
	x := n.sent ^ uint64(from)<<40 ^ uint64(to)<<24
	x ^= 0x9E3779B97F4A7C15
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return sim.Time(x % uint64(n.cfg.Jitter))
}

// verify is DebugCheck: msg must survive the codec whole, so that what the
// sim delivers is what a live peer would decode.
func (n *Network) verify(msg *wire.Msg, size int) {
	buf := msg.Encode(n.scratch[:0])
	n.scratch = buf
	if len(buf) != size {
		panic(fmt.Sprintf("cnet: WireSize %d != encoded %d for %v", size, len(buf), msg.Kind))
	}
	got := &n.decoded
	if err := got.Decode(buf); err != nil {
		panic(fmt.Sprintf("cnet: self-check decode failed for %v: %v", msg.Kind, err))
	}
	if !got.Equal(msg) {
		panic(fmt.Sprintf("cnet: codec round trip changed a %v:\nsent    %+v\ndecoded %+v", msg.Kind, *msg, *got))
	}
}
