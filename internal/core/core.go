// Package core implements the paper's primary contribution: the per-object
// adaptive home-migration threshold (§4). Each shared object carries, at
// its current home node, a State tracking
//
//	C — consecutive remote writes since the last migration (§3.3),
//	R — redirected object requests, accumulation-weighted (§4.1),
//	E — exclusive home writes (§4.1),
//
// and the adaptive threshold of Eq. (2)–(3):
//
//	T_i = max(T_{i-1} + λ·(R_i − α·E_i), T_init),   T_0 = T_init = 1.
//
// The threshold is re-evaluated continuously as feedback arrives; home
// migration (Eq. 1) triggers when a fault-in request from the last writer
// finds C ≥ T. On migration the epoch state is reset and the frozen
// threshold ships to the new home inside a Record.
package core

import (
	"fmt"

	"repro/internal/memory"
)

// Params holds the protocol constants of §4.2.
type Params struct {
	// Lambda is λ, the feedback coefficient. The paper sets it to 1 "to
	// make the home migration threshold sensitive enough to the feedback".
	Lambda float64
	// TInit is the initial threshold. The paper sets it to 1 "to speed up
	// the initial data relocation".
	TInit float64
	// Alpha returns the home-access coefficient α for an object of o bytes
	// whose diffs average d bytes (Appendix A). Injected so core does not
	// depend on a particular network model.
	Alpha func(objBytes, diffBytes int) float64
}

// DefaultParams returns the paper's constants (λ=1, T_init=1) with the
// given α deduction.
func DefaultParams(alpha func(o, d int) float64) Params {
	return Params{Lambda: 1, TInit: 1, Alpha: alpha}
}

// Record is the migration-state snapshot shipped to the new home when an
// object migrates: the frozen threshold plus the running diff-size
// estimate that feeds α.
type Record struct {
	TBase   float64 // T_i at migration time, the next epoch's T_{i-1}
	Epoch   int32   // number of migrations performed so far
	AvgDiff float64 // running mean diff size in bytes
	DiffObs int32   // observations behind AvgDiff
}

// State is the per-object migration bookkeeping kept by the object's
// current home node. All fields reflect the current epoch, i.e. activity
// since the most recent migration.
type State struct {
	C          int           // consecutive remote writes from LastWriter
	LastWriter memory.NodeID // source of the current consecutive-write run
	R          int           // redirected requests (Σ hops) this epoch
	E          int           // exclusive home writes this epoch
	Epoch      int           // migrations so far

	alphaE   float64 // Σ α(o, d̄) over exclusive-home-write events
	objBytes int

	homeWriteSeen        bool // a home write occurred this epoch
	remoteSinceHomeWrite bool // a remote write arrived after the last home write

	// est is what carries over to the next home: est.TBase is T_{i-1},
	// est.AvgDiff the running mean observed diff size in bytes over
	// est.DiffObs diffs. Migrate completes it into the Record it ships.
	est Record
}

// NewState returns the epoch-0 state for an object of objBytes payload.
func NewState(p Params, objBytes int) *State {
	return &State{LastWriter: memory.NoNode, objBytes: objBytes,
		// Until a diff is observed, estimate d = o/2 (the paper only
		// assumes o > d); the estimate self-corrects with feedback.
		est: Record{TBase: p.TInit, AvgDiff: float64(objBytes) / 2},
	}
}

// FromRecord reconstructs state at the new home after a migration.
func FromRecord(p Params, objBytes int, rec Record) *State {
	s := NewState(p, objBytes)
	s.est.TBase = max(rec.TBase, p.TInit)
	s.Epoch = int(rec.Epoch)
	if rec.DiffObs > 0 {
		s.est.AvgDiff, s.est.DiffObs = rec.AvgDiff, rec.DiffObs
	}
	return s
}

// Threshold evaluates Eq. (2) with the current epoch feedback:
// max(T_{i-1} + λ·(R − Σα·per-event E), T_init). α is applied per
// exclusive-home-write event using the diff-size estimate current at that
// event, which equals the paper's α·E_i when α is constant.
func (s *State) Threshold(p Params) float64 {
	t := s.est.TBase + p.Lambda*(float64(s.R)-s.alphaE)
	if t < p.TInit {
		return p.TInit
	}
	return t
}

// Alpha returns the α in effect for this object right now.
func (s *State) Alpha(p Params) float64 {
	return p.Alpha(s.objBytes, int(s.est.AvgDiff))
}

// RemoteWrite records a diff of diffBytes arriving from node w. Under the
// Java memory model remote writes surface only at synchronization points,
// so one diff receipt equals one synchronization interval in which only w
// updated the object (§3.3).
func (s *State) RemoteWrite(w memory.NodeID, diffBytes int) {
	if w == s.LastWriter {
		s.C++
	} else {
		s.C = 1
		s.LastWriter = w
	}
	s.remoteSinceHomeWrite = true
	s.noteDiff(diffBytes)
}

// HomeWrite records a trapped write fault on the home copy. It reports
// whether this was an exclusive home write — no remote write between it
// and an earlier home write (§4.1) — in which case E grows and the
// threshold drops by α (positive feedback).
func (s *State) HomeWrite(p Params) (exclusive bool) {
	if s.homeWriteSeen && !s.remoteSinceHomeWrite {
		s.E++
		s.alphaE += s.Alpha(p)
		exclusive = true
	}
	s.homeWriteSeen = true
	s.remoteSinceHomeWrite = false
	// A home write interleaves the remote stream: the consecutive-remote-
	// write run is broken (§3.3 "not interleaved with the writes from
	// either the home node or other remote nodes").
	s.C = 0
	s.LastWriter = memory.NoNode
	return exclusive
}

// Redirected records that a fault-in request reached this home after hops
// forwarding-pointer redirections. Redirection accumulation counts each
// hop (§4.1: a request redirected three times counts three).
func (s *State) Redirected(hops int) {
	if hops > 0 {
		s.R += hops
	}
}

// noteDiff updates the running diff-size estimate feeding α.
func (s *State) noteDiff(bytes int) {
	s.est.DiffObs++
	s.est.AvgDiff += (float64(bytes) - s.est.AvgDiff) / float64(s.est.DiffObs)
}

// Migrate freezes the current threshold as T_i and returns the Record to
// ship to the new home. Callers invoke it only after a policy decided to
// migrate, and then drop s: the record is s's own estimate, completed in
// place, so a migrating reply carries it by pointer without allocating,
// and nothing writes it once s is dropped.
func (s *State) Migrate(p Params) *Record {
	s.est.TBase = s.Threshold(p)
	s.est.Epoch = int32(s.Epoch + 1)
	return &s.est
}

func (s *State) String() string {
	return fmt.Sprintf("core.State{C=%d last=%d R=%d E=%d epoch=%d Tbase=%.3f}",
		s.C, s.LastWriter, s.R, s.E, s.Epoch, s.est.TBase)
}
