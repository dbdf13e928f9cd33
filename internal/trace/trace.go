// Package trace classifies per-object access patterns — the tooling the
// paper's §6 future work ("we will research on other heuristics")
// requires: given the protocol events of a run, it names each object's
// write pattern (single-writer lasting/transient, multiple-writer,
// read-mostly). What a policy would cost on the same program is not
// modeled here: it is a run under that policy (bench.WhatIf), through
// internal/proto like every other run.
//
// It has no event model of its own. Analyze reads flight.Event sequences
// — a Trace attached to a cluster (dsm.Config.Trace, either engine), or a
// merged flight timeline — and classifies four kinds: Request (requester
// in Peer, redirection accumulation in Hops), RemoteWrite (writer in
// Peer, diff bytes in Bytes) and the trapped HomeWrite and HomeRead (the
// home in Node). Every other kind is skipped.
package trace

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/flight"
	"repro/internal/memory"
)

var kinds = flight.MaskOf(flight.Request, flight.RemoteWrite, flight.HomeWrite, flight.HomeRead)

// Trace is an ordered log of the events the classifier reads: the
// flight.Subscriber behind dsm.Config.Trace. It is not synchronized; the
// live engine serializes delivery.
type Trace struct {
	Events []flight.Event
}

// Kinds implements flight.Subscriber.
func (t *Trace) Kinds() flight.Mask { return kinds }

// Record implements flight.Subscriber: append one event.
func (t *Trace) Record(ev flight.Event) { t.Events = append(t.Events, ev) }

// Len reports the number of recorded events.
func (t *Trace) Len() int { return len(t.Events) }

// Pattern is the classification of one object's write behavior.
type Pattern uint8

const (
	// ReadMostly: no writes observed.
	ReadMostly Pattern = iota
	// SingleWriterLasting: one writer with long consecutive runs.
	SingleWriterLasting
	// SingleWriterTransient: writers change frequently.
	SingleWriterTransient
	// MultipleWriter: concurrent writers within intervals (interleaved).
	MultipleWriter
)

func (p Pattern) String() string {
	switch p {
	case ReadMostly:
		return "read-mostly"
	case SingleWriterLasting:
		return "single-writer-lasting"
	case SingleWriterTransient:
		return "single-writer-transient"
	case MultipleWriter:
		return "multiple-writer"
	default:
		return fmt.Sprintf("pattern(%d)", uint8(p))
	}
}

// Profile summarizes one object's behavior over a trace.
type Profile struct {
	Obj       memory.ObjectID
	Pattern   Pattern
	Writes    int     // total write observations
	Writers   int     // distinct writers (home writes count the home)
	MaxRun    int     // longest same-writer consecutive run
	MeanRun   float64 // average run length
	Requests  int
	RedirHops int
}

// lastingRunThreshold separates lasting from transient single-writer
// behavior, mirroring the paper's observation that the benefit starts
// paying off around run length 8 (§5.2, Fig. 5).
const lastingRunThreshold = 8

// Analyze classifies every object the events show an access to.
func Analyze(evs []flight.Event) []Profile {
	type acc struct {
		writers   map[memory.NodeID]bool
		runs      []int
		curWriter memory.NodeID
		curRun    int
		writes    int
		requests  int
		hops      int
	}
	m := map[memory.ObjectID]*acc{}
	get := func(obj memory.ObjectID) *acc {
		a := m[obj]
		if a == nil {
			a = &acc{writers: map[memory.NodeID]bool{}, curWriter: memory.NoNode}
			m[obj] = a
		}
		return a
	}
	endRun := func(a *acc) {
		if a.curRun > 0 {
			a.runs = append(a.runs, a.curRun)
			a.curRun = 0
			a.curWriter = memory.NoNode
		}
	}
	for _, e := range evs {
		if !kinds.Has(e.Kind) {
			continue
		}
		a := get(e.Obj)
		switch e.Kind {
		case flight.RemoteWrite, flight.HomeWrite:
			writer := e.Peer
			if e.Kind == flight.HomeWrite {
				writer = e.Node
			}
			a.writes++
			a.writers[writer] = true
			if writer == a.curWriter {
				a.curRun++
			} else {
				endRun(a)
				a.curWriter = writer
				a.curRun = 1
			}
		case flight.Request:
			a.requests++
			a.hops += int(e.Hops)
		}
	}
	var out []Profile
	for obj, a := range m {
		endRun(a)
		p := Profile{Obj: obj, Writes: a.writes, Writers: len(a.writers),
			Requests: a.requests, RedirHops: a.hops}
		total := 0
		for _, r := range a.runs {
			total += r
			if r > p.MaxRun {
				p.MaxRun = r
			}
		}
		if len(a.runs) > 0 {
			p.MeanRun = float64(total) / float64(len(a.runs))
		}
		switch {
		case a.writes == 0:
			p.Pattern = ReadMostly
		case len(a.writers) == 1 || p.MeanRun >= lastingRunThreshold:
			p.Pattern = SingleWriterLasting
		case p.MeanRun >= 2:
			p.Pattern = SingleWriterTransient
		default:
			p.Pattern = MultipleWriter
		}
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Obj < out[j].Obj })
	return out
}

// Report renders profiles as a table.
func Report(profiles []Profile) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-8s %-24s %7s %7s %7s %8s %8s %6s\n",
		"object", "pattern", "writes", "writers", "maxrun", "meanrun", "requests", "hops")
	for _, p := range profiles {
		fmt.Fprintf(&sb, "%-8d %-24s %7d %7d %7d %8.2f %8d %6d\n",
			p.Obj, p.Pattern, p.Writes, p.Writers, p.MaxRun, p.MeanRun, p.Requests, p.RedirHops)
	}
	return sb.String()
}
