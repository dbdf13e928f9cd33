// Package gos runs the Global Object Space — the home-based,
// object-granularity software DSM of the paper (§3) — on the
// deterministic virtual-time simulation kernel. Each node runs a
// protocol daemon (an event handler on the kernel, not a process: Node)
// serving object fault-ins, diff propagation, lock/barrier management
// and home migration; application threads access shared objects through
// software access checks exactly as the distributed JVM's JIT-inlined
// checks do.
//
// The protocol itself — the node-side handlers and the thread-side
// driver — lives in internal/proto and is shared with the live goroutine
// engine (internal/live); this package contributes the virtual-time
// scheduling (Node is the proto.Engine, Thread the proto.Host),
// Hockney-model message costs and the deterministic event ordering
// behind the paper's figures. The engine attaches the flight rings it
// stamps (Config.FlightCap); every other subscriber attaches through
// Cluster.Subscribe.
package gos

import (
	"fmt"

	"repro/internal/cnet"
	"repro/internal/flight"
	"repro/internal/hlc"
	"repro/internal/hockney"
	"repro/internal/memory"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Config parameterizes one DSM run: the protocol selection and layout
// both engines share (proto.Shared, handed to proto.NewSpace as is) plus
// what only the virtual-time engine has — the cost model and flight rings.
// Observers attach through Subscribe (Space.Subscribe), after New.
type Config struct {
	proto.Shared
	// Net is the interconnect cost model.
	Net hockney.Model
	// DebugWire round-trips every message through the codec.
	DebugWire bool
	// FlightCap, when positive, attaches a flight recorder of that
	// capacity to every node. Events are stamped with the virtual clock
	// (Wall = virtual nanoseconds, Logical = per-node record sequence),
	// so the merged timeline of a seeded run is byte-identical across
	// repeats.
	FlightCap int
}

// DefaultConfig returns the paper's setup: AT policy over forwarding
// pointers on a Fast-Ethernet-class network.
func DefaultConfig(nodes int) Config {
	net := hockney.FastEthernet()
	return Config{Shared: proto.DefaultShared(nodes, net.Alpha), Net: net}
}

// jitter is the network model's deterministic per-message delivery
// perturbation (cnet.Config.Jitter): small, to avoid artificial lock-step
// arrival symmetry.
const jitter = 4 * sim.Microsecond

// Cluster is a configured DSM instance. Build it with New, declare shared
// objects, locks and barriers, then call Run.
type Cluster struct {
	cfg      Config
	env      *sim.Env
	net      *cnet.Network
	Counters stats.Counters
	// Space holds the declared layout and every node's protocol state;
	// its AddObject/InitObject/AddLock/AddBarrier and post-run inspection
	// methods are the cluster's own.
	*proto.Space
	nodes []*Node

	endTime sim.Time
}

// New builds a cluster per cfg, taken as given: the paper's selection is
// proto.DefaultShared, which DefaultConfig and dsm.New start from.
func New(cfg Config) *Cluster {
	if cfg.Nodes <= 0 {
		panic("gos: cluster needs at least one node")
	}
	c := &Cluster{cfg: cfg, env: sim.NewEnv()}
	c.net = cnet.New(c.env, cnet.Config{Model: cfg.Net, Jitter: jitter, DebugCheck: cfg.DebugWire}, cfg.Nodes, &c.Counters)
	c.Space = proto.NewSpace(&c.cfg.Shared)
	for i := 0; i < cfg.Nodes; i++ {
		n := newNode(c, memory.NodeID(i))
		if cfg.FlightCap > 0 {
			st := &simStamper{env: c.env}
			c.AttachFlight(flight.NewRecorder(memory.NodeID(i), cfg.FlightCap, st.stamp))
		}
		c.nodes = append(c.nodes, n)
	}
	return c
}

// simStamper stamps flight events off the virtual clock: Wall is the
// simulated nanosecond, Logical a per-node record sequence that breaks
// ties between events recorded at the same instant. Both are functions
// of the deterministic schedule only — the ring stamps what it stores,
// so the sequence does not see the other subscribers — and a seeded
// run's merged timeline is byte-identical across repeats, whatever else
// is attached.
type simStamper struct {
	env *sim.Env
	seq uint32
}

func (s *simStamper) stamp() hlc.Stamp {
	s.seq++
	return hlc.Stamp{Wall: int64(s.env.Now()), Logical: s.seq}
}

// Run executes the workers to completion and returns the run metrics.
func (c *Cluster) Run(workers []proto.Worker) (stats.Metrics, error) {
	c.Seal()
	doneQ := c.env.NewQueue("done")
	for i, w := range workers {
		if w.Node < 0 || int(w.Node) >= c.cfg.Nodes {
			panic(fmt.Sprintf("gos: worker %d on invalid node %d", i, w.Node))
		}
		n := c.nodes[w.Node]
		t := &Thread{c: c, reply: c.env.NewQueue(fmt.Sprintf("reply-%s", w.Name))}
		t.Driver = proto.NewDriver(n.Node, t, i, int32(len(n.threads)), w.Name)
		n.threads = append(n.threads, t)
		fn := w.Fn
		t.proc = c.env.Spawn(w.Name, func(p *sim.Proc) {
			fn(t)
			t.SyncPoint()
			doneQ.Send(t.ID())
		})
	}
	c.env.Spawn("master", func(p *sim.Proc) {
		for range workers {
			doneQ.Recv(p)
		}
		c.endTime = p.Now()
		// Quiesce: fire-and-forget traffic (lock releases with piggybacked
		// diffs, manager updates, broadcasts) may still be in flight or
		// being processed. Wait it out (nobody needs stopping: the daemons
		// are event handlers and Run returns when the heap drains). Cleanup
		// time is not part of ExecTime, captured at the last thread's finish.
		for !c.quiesced() {
			p.Sleep(5 * sim.Microsecond)
		}
	})
	err := c.env.Run()
	m := stats.Metrics{
		ExecTime:  c.endTime,
		FinalTime: c.env.Now(),
		Kernel:    c.env.Stats(),
		Counters:  c.Counters,
	}
	return m, err
}

// quiesced reports whether no protocol activity remains anywhere.
func (c *Cluster) quiesced() bool {
	if c.net.InFlight() > 0 {
		return false
	}
	for _, n := range c.nodes {
		if n.cur != nil || n.inbox.Len() > 0 {
			return false
		}
	}
	return true
}
