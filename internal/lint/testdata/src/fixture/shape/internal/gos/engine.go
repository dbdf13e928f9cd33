// Package gos stands in for the simulated engine.
package gos

import (
	"errors"

	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/wire"
)

// ErrTwinLeak spells a proto sentinel a second time.
var ErrTwinLeak = errors.New("twin leak") // want `the facade calls the engine directly: Err\* declared in repro/internal/gos`

// Config is an engine configuration that grew observation fields.
type Config struct {
	Observer     any  // want `observers attach only through Subscribe: field Observer declared`
	PathCompress bool // want `the selection is declared once per level: field PathCompress declared outside`
}

type host struct{}

// Backoff is the wait the driver no longer has.
func (host) Backoff() {} // want `a back-off is a retry timer: Backoff declared`

// grant builds a protocol message inside the engine.
func grant() wire.Msg {
	return wire.Msg{Kind: wire.LockGrant} // want `engines build no protocol messages: wire.Msg literal`
}

// handle hands the daemon's frame to the protocol core by value.
func handle(n *proto.Node, m *wire.Msg) {
	n.Handle(*m) // want `Node.Handle by value is the benchmark probes' wrapper: use of proto.Node.Handle outside internal/proto/`
}

// install hands a fault-in reply to the protocol core by value; the
// space's Install, which records an end state, is another method.
func install(n *proto.Node, sp *proto.Space, m *wire.Msg, end *proto.EndState) {
	n.Install(*m) // want `Node.Install by value is the benchmark probes' wrapper: use of proto.Node.Install outside internal/proto/`
	sp.Install(end)
}

// params builds the paper's constants a second time.
func params() core.Params {
	return core.DefaultParams(nil) // want `the paper's selection is built once: use of core.DefaultParams outside internal/proto/proto.go`
}
