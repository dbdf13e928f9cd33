package proto

import "repro/internal/flight"

// subscription is one subscriber with the kinds it declared.
type subscription struct {
	kinds flight.Mask
	sub   flight.Subscriber
}

// Subscribe adds sub to the node's subscribers. Call it before the run
// starts; the list is read without synchronization afterwards.
func (n *Node) Subscribe(sub flight.Subscriber) {
	k := sub.Kinds()
	n.subs = append(n.subs, subscription{k, sub})
	n.listening |= k
}

// On reports whether any subscriber wants kind k. It is the whole cost
// of an event nobody listens to: every site tests it before building
// the event,
//
//	if n.On(flight.HomeRead) {
//		n.Emit(flight.Event{Kind: flight.HomeRead, Obj: obj})
//	}
//
// and a node without subscribers (the zero value included) answers
// false for every kind.
func (n *Node) On(k flight.Kind) bool { return n.listening.Has(k) }

// Emit delivers ev, attributed to this node, to every subscriber that
// declared its kind — in subscription order, unstamped: a subscriber
// that stamps does so on the events it keeps. Observation is pure: no
// subscriber feeds back into a protocol decision.
//
// Ordering: emissions form a single total order consistent with
// causality. Under the sim engine that order is virtual time (the
// kernel is cooperatively scheduled); under the live engine each event
// is emitted at its protocol point while the issuing node's state lock
// is held, so causally ordered events — a release and the acquire its
// grant enables, a write and the read its diff feeds — reach a
// cluster-wide subscriber in causal order, and only genuinely
// concurrent events race for positions.
//
//dsm:hotpath
func (n *Node) Emit(ev flight.Event) {
	ev.Node = n.ID
	for i := range n.subs {
		if s := &n.subs[i]; s.kinds.Has(ev.Kind) {
			s.sub.Record(ev)
		}
	}
}

// Subscribe adds sub to every node: the cluster-wide subscribers
// (dsm.Config.Observers: the oracle's log, the telemetry sketch, a
// trace). A nil sub is ignored. Must precede Run.
func (sp *Space) Subscribe(sub flight.Subscriber) {
	sp.mustBeOpen()
	if sub == nil {
		return
	}
	for _, n := range sp.Nodes {
		n.Subscribe(sub)
	}
}

// AttachFlight subscribes a flight ring to the node it records for and
// lists it; engines attach every ring they create or are handed.
func (sp *Space) AttachFlight(rec *flight.Recorder) {
	sp.Nodes[rec.Node()].Subscribe(rec)
	sp.flights = append(sp.flights, rec)
}

// FlightRecorders returns the attached rings in node order: none when
// recording is off.
func (sp *Space) FlightRecorders() []*flight.Recorder { return sp.flights }

// FlightEvents merges every attached ring into one (Wall, Logical)-ordered
// timeline. Call after Run.
func (sp *Space) FlightEvents() []flight.Event {
	logs := make([][]flight.Event, 0, len(sp.flights))
	for _, r := range sp.flights {
		logs = append(logs, r.Snapshot())
	}
	return flight.Merge(logs...)
}
