package obs

import "repro/internal/flight"

// fnode holds a flight recorder the way the transports do: a field that
// is nil whenever recording is disabled.
type fnode struct {
	fl *flight.Recorder
}

// leakFlight records with no guard at all.
func (n *fnode) leakFlight() {
	n.fl.Record(flight.Event{Kind: flight.HomeRead}) // want `flight.Recorder.Record called without a nil check`
}

// guardedFlight uses the canonical rebind-and-check idiom: clean.
func (n *fnode) guardedFlight() {
	if f := n.fl; f != nil {
		f.Record(flight.Event{Kind: flight.HomeWrite, Obj: 1})
	}
}

// fieldGuardedFlight checks the field in place: clean.
func (n *fnode) fieldGuardedFlight() {
	if n.fl != nil {
		n.fl.Record(flight.Event{Kind: flight.FrameSend, Peer: 1})
	}
}

// earlyFlight bails on nil before recording: clean.
func (n *fnode) earlyFlight() {
	if n.fl == nil {
		return
	}
	n.fl.Record(flight.Event{Kind: flight.Abort})
}

// auditedFlight has the guard at every call site; the justified
// suppression keeps this one quiet.
func (n *fnode) auditedFlight() {
	n.fl.Record(flight.Event{Kind: flight.Request}) //dsm:nolint obslint: fixture: every caller checks n.fl before invoking
}

// coldRead exercises a non-Record method: the contract covers only the
// hot-path Record, so this stays clean even unguarded.
func (n *fnode) coldRead() int {
	return n.fl.Len()
}
