// Package live stands in for the goroutine engine.
package live

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

func (c *Cluster) Subscribe(sub any) { // want `one way to subscribe: method Subscribe declared outside internal/proto/observe.go, internal/proto/proto.go`
	c.subs = append(c.subs, sub)
}
