// Package cnet stands in for the simulated interconnect.
package cnet

import "repro/internal/wire"

// verify copies a decoded message out, through the probe's wrapper.
func verify(frame []byte) error {
	_, err := wire.Decode(frame) // want `wire.Decode is the benchmark probe's wrapper: use of wire.Decode outside internal/wire/`
	return err
}

// verifyInPlace decodes into a message it keeps: the method is fine.
func verifyInPlace(m *wire.Msg, frame []byte) error { return m.Decode(frame) }

type network struct{ sent int }

// Broadcast fans a message out below the protocol core.
func (n *network) Broadcast(m *wire.Msg) { n.sent++ } // want `a broadcast is proto's: method Broadcast declared`
