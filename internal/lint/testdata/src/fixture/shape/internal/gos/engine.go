// Package gos stands in for the simulated engine.
package gos

import "repro/internal/wire"

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
