// Package live stands in for the goroutine engine.
package live

import (
	"iter"
	"sync"
	_ "unsafe" // want `unsafe lives in the word view: import of unsafe outside internal/twindiff/words.go`

	"repro/internal/live/transport"
	"repro/internal/live/transport/tcp"
	"repro/internal/wire"
)

// DepthReporter is the run-time depth probe a backend no longer needs.
type DepthReporter interface { // want `a live backend is a Pusher at compile time: DepthReporter declared`
	PeakDepth() int
}

// Quiescer is a second quiescence probe beside the control round.
type Quiescer interface{ Quiet() bool } // want `no quiescence probe beside the round: Quiescer declared`

type queue struct{}

// Recv implements a pull receive: declaring it is fine, calling it is not.
func (queue) Recv() []byte { return nil }

type config struct{ FlightLocal *int }

type node struct {
	in     queue
	Flight *int
}

func (n *node) daemon() { // want `one live receive path: daemon declared`
	_ = n.in.Recv() // want `one live receive path: use of method Recv`
}

// observe guards an observation pointer by name; the setup checks below
// compare other names with nil and stay quiet.
func (n *node) observe(cfg config, sub *int) {
	if n.Flight != nil { // want `no observation nil-guard: Flight compared with nil`
		*n.Flight = 1
	}
	if cfg.FlightLocal != nil && sub != nil {
		*sub = *cfg.FlightLocal
	}
}

// Cluster wraps the space's subscription in an engine-side one.
type Cluster struct{ subs []any }

func (c *Cluster) Subscribe(sub any) { // want `one way to subscribe: method Subscribe declared outside internal/proto/observe.go`
	c.subs = append(c.subs, sub)
}

// waiter blocks on a mailbox with a lock of its own and runs a second
// coroutine outside thread.go.
type waiter struct{ mbox *transport.Queue[int] }

func (w waiter) wait(seq iter.Seq[int]) int {
	w.mbox = transport.NewQueue[int]() // want `a thread's mailbox is its node's: use of transport.NewQueue`
	next, _ := iter.Pull(seq)          // want `a live thread is one coroutine: use of iter.Pull outside internal/live/thread.go`
	v, _ := next()
	got, _ := w.mbox.Get() // want `one live receive path: use of transport.Queue.Get`
	return v + got
}

// decode parses a frame into fresh buffers, bypassing the node's pool.
func (n *node) decode(frame []byte) (wire.Msg, error) {
	var m wire.Msg
	err := m.Decode(frame) // want `the live engine decodes into its pool: use of wire.Msg.Decode`
	return m, err
}

// frames recycles encode buffers without a bound.
var frames sync.Pool // want `a pool is a bounded free list: use of sync.Pool in repro/internal/live`

// depth reads the TCP backend's inbox gauge outside the member.
func depth(tr *tcp.Transport) int {
	return tr.InboxLen(0) // want `the TCP InboxLen feeds only the member's gauge: use of tcp.Transport.InboxLen outside internal/live/cluster/cluster.go, internal/live/transport/tcp/tcp_test.go`
}
