//dsm:wallclock hybrid logical clocks sample physical time by definition

// Package hlc implements hybrid logical clocks (Kulkarni et al.): a
// per-process clock whose stamps order events consistently with
// happens-before across machines whose wall clocks disagree. A stamp is
// a (wall, logical) pair: the wall component tracks the local physical
// clock but never runs backwards and is ratcheted forward by every
// received stamp; the logical component breaks ties among events that
// share a wall reading. Comparing stamps lexicographically therefore
// yields an order in which a message's send always precedes its receive
// — and, transitively, any event causally after the receive — no matter
// how far the machines' physical clocks are skewed.
//
// The cluster layer stamps every TCP frame with the sender's clock and
// folds received stamps into the receiver's (Observe), and the oracle
// event recorder stamps every event it stores (Tick); sorting the merged
// per-process event logs by stamp then reconstructs an order the LRC
// checker can trust, which raw wall-clock stamps cannot provide once
// the processes leave one machine.
package hlc

import (
	"sync"
	"time"
)

// Stamp is one hybrid-logical-clock reading. The zero Stamp sorts
// before every real one and is the "no information" stamp an unclocked
// transport carries.
type Stamp struct {
	// Wall is the physical component in Unix nanoseconds: the maximum
	// of every wall reading and remote stamp the clock has seen.
	Wall int64
	// Logical breaks ties among stamps sharing a Wall reading.
	Logical uint32
}

// IsZero reports whether s carries no clock information.
func (s Stamp) IsZero() bool { return s.Wall == 0 && s.Logical == 0 }

// Less orders stamps lexicographically: wall first, logical second.
// Stamps from one clock are strictly increasing, so Less is a total
// order per process and consistent with happens-before across
// processes whose clocks exchange stamps.
func (s Stamp) Less(o Stamp) bool {
	if s.Wall != o.Wall {
		return s.Wall < o.Wall
	}
	return s.Logical < o.Logical
}

// Clock is a hybrid logical clock. The zero value is not usable; build
// with New. All methods are safe for concurrent use.
type Clock struct {
	mu   sync.Mutex
	wall func() int64
	s    Stamp
}

// New returns a clock driven by the given wall-clock source (Unix
// nanoseconds). nil selects the system clock; tests inject skewed or
// frozen sources to model machines whose clocks disagree.
func New(wall func() int64) *Clock {
	if wall == nil {
		wall = func() int64 { return time.Now().UnixNano() }
	}
	return &Clock{wall: wall}
}

// Tick advances the clock for a local event and returns its stamp.
// Stamps from one clock are strictly increasing even if the wall
// source stalls or steps backwards.
func (c *Clock) Tick() Stamp {
	c.mu.Lock()
	defer c.mu.Unlock()
	if w := c.wall(); w > c.s.Wall {
		c.s = Stamp{Wall: w}
		return c.s
	}
	c.s.Logical++
	return c.s
}

// Observe folds a received stamp into the clock — the receive event of
// a message carrying remote — and returns the receive's own stamp,
// which is strictly greater than both remote and every earlier local
// stamp. A zero remote degenerates to Tick.
func (c *Clock) Observe(remote Stamp) Stamp {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.wall()
	switch {
	case w > c.s.Wall && w > remote.Wall:
		c.s = Stamp{Wall: w}
	case remote.Wall > c.s.Wall:
		c.s = Stamp{Wall: remote.Wall, Logical: remote.Logical + 1}
	case remote.Wall == c.s.Wall && remote.Logical >= c.s.Logical:
		c.s.Logical = remote.Logical + 1
	default:
		c.s.Logical++
	}
	return c.s
}
