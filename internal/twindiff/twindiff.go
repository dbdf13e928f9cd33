package twindiff

import (
	"encoding/binary"
	"fmt"
	"iter"
	"math"
	"slices"
)

// Diff is an ordered, non-overlapping set of modified-word runs in one
// buffer (layout in the package comment). The zero value is the empty diff.
type Diff struct{ buf []uint64 }

const (
	// diffSlack is what the worst-case diff of an n-word object needs
	// beyond n: r runs over w words leave r-1 gaps, so r+w ≤ n+1, plus
	// the count word.
	diffSlack = 2
	// maxFree bounds the freelist: buffers migrate between pools (a
	// reply drawn at the home is released at the requester), so an
	// unbounded one grows by an entry per fault-in. A full pool leaves
	// Puts to the GC. A node cycles a handful of buffers per object it
	// touches in an interval; a deeper list only holds memory.
	maxFree = 64
	// poison fills a buffer Put under the race detector (poisonPuts): as
	// a run header it starts and spans far past any object.
	poison = 0xDEAD_BEEF_DEAD_BEEF
)

// Pool is a bounded freelist of object-sized buffers, letting the hot path
// (a twin per first write of an interval, a diff per release, a payload
// per decoded frame on the live engine) reuse memory instead of
// allocating. Every buffer it allocates has room for the worst-case diff
// of the object it was sized for, so twins, diffs and payloads recycle
// into each other; a buffer born elsewhere (decoded without a pool) serves
// where its capacity fits. The zero value is ready to use; a nil *Pool
// falls back to plain allocation. Not safe for concurrent use — each node
// has its own, used under the node's lock.
//
// Ownership: whoever drew a buffer owns it, and returns it at its last
// use; after a Put the buffer may be handed out again, so its owner holds
// no live references. On the live engine a frame's payloads are copies:
// Send encodes, the receiver decodes into buffers drawn from its own
// pool. On the virtual-time engine the receiver shares the sender's
// buffer and so never Puts it (see the package comment).
type Pool struct{ free [][]uint64 }

// getWords returns a length-n buffer, contents undefined, with capacity for
// slack more words.
func (p *Pool) getWords(n, slack int) []uint64 {
	if p != nil {
		// Scan a bounded window from the top: a workload's object sizes are
		// near-uniform. An entry over twice the size waits for its own kind.
		for i := len(p.free) - 1; i >= 0 && i >= len(p.free)-8; i-- {
			if c := cap(p.free[i]); c >= n+slack && c <= 2*(n+diffSlack) {
				buf := p.free[i][:n]
				p.free = slices.Delete(p.free, i, i+1)
				return buf
			}
		}
	}
	return make([]uint64, n, n+diffSlack)
}

// GetWords returns a length-n buffer, contents undefined, for a payload
// the caller fills: a decoded object's data. A nil pool allocates exactly
// n words.
func (p *Pool) GetWords(n int) []uint64 {
	if p == nil {
		return make([]uint64, n)
	}
	return p.getWords(n, 0)
}

// PutWords returns a word buffer (a released twin, an invalidated cached
// copy's data, a sent reply's snapshot) to the freelist.
func (p *Pool) PutWords(buf []uint64) { p.PutDiff(Diff{buf}) }

// PutDiff returns d's buffer to the freelist. The caller must own d: it
// computed it and the home acknowledged it, or it decoded d from its
// pool and has applied or re-encoded it.
func (p *Pool) PutDiff(d Diff) {
	if poisonPuts {
		full := d.buf[:cap(d.buf)]
		for i := range full {
			full[i] = poison
		}
	}
	if p != nil && cap(d.buf) > 0 && len(p.free) < maxFree {
		p.free = append(p.free, d.buf)
	}
}

// Twin returns a private snapshot of data (the "twin" of §3.1).
func Twin(data []uint64) []uint64 { return TwinInto(nil, data) }

// TwinInto is Twin drawing the snapshot buffer from pool (nil pool = plain
// allocation).
func TwinInto(pool *Pool, data []uint64) []uint64 {
	t := pool.getWords(len(data), 0)
	copy(t, data)
	return t
}

// Compute returns the diff transforming twin into cur. Both slices must
// have equal length; Compute panics otherwise, because a length mismatch
// means the caller twinned a different object.
func Compute(twin, cur []uint64) Diff { return ComputeInto(nil, twin, cur) }

// ComputeInto is Compute drawing the diff buffer from pool (nil pool =
// plain allocation).
//
//dsm:hotpath
func ComputeInto(pool *Pool, twin, cur []uint64) Diff {
	if len(twin) != len(cur) {
		panic(fmt.Sprintf("twindiff: twin len %d != cur len %d", len(twin), len(cur)))
	}
	// Runs are written by index. A pooled buffer holds the worst case;
	// without a pool nobody recycles the buffer, so it grows to the diff.
	var buf []uint64
	k := 1 // next word of buf to write
	for i := 0; i < len(cur); i++ {
		if twin[i] == cur[i] {
			continue
		}
		j := i + 1
		for j < len(cur) && twin[j] != cur[j] {
			j++
		}
		if buf == nil {
			if pool != nil {
				buf = pool.getWords(len(cur), diffSlack)
			} else {
				buf = make([]uint64, 8)
			}
			buf = buf[:cap(buf)]
			buf[0] = 0
		}
		if k+1+j-i > len(buf) {
			buf = slices.Grow(buf[:k], 1+j-i)
			buf = buf[:cap(buf)]
		}
		buf[0]++
		buf[k] = uint64(i) | uint64(j-i)<<32
		if j-i == 1 {
			buf[k+1] = cur[i] // red-black rows: not worth a memmove call
		} else {
			copy(buf[k+1:], cur[i:j])
		}
		k += 1 + j - i
		i = j // cur[j] is unchanged (or the end)
	}
	if buf == nil {
		return Diff{}
	}
	return Diff{buf[:k]}
}

// OneRun returns the diff that writes words at start (no words: the empty
// diff). With Merge it builds diffs by hand, for tests and fuzz seeds; the
// protocol builds its diffs with Compute.
func OneRun(start uint32, words ...uint64) Diff {
	if len(words) == 0 {
		return Diff{}
	}
	return Diff{append([]uint64{1, uint64(start) | uint64(len(words))<<32}, words...)}
}

// runs returns the buffer past the count word: headers and values.
func (d Diff) runs() []uint64 { return d.buf[min(1, len(d.buf)):] }

// Runs iterates over the runs in order: the first modified word index and
// the new values, which alias the diff's buffer.
func (d Diff) Runs() iter.Seq2[uint32, []uint64] {
	return func(yield func(uint32, []uint64) bool) {
		for b := d.runs(); len(b) > 0; {
			n := 1 + int(b[0]>>32)
			if !yield(uint32(b[0]), b[1:n]) {
				return
			}
			b = b[n:]
		}
	}
}

// Apply writes the diff's runs into dst (the home copy). Out-of-range runs
// panic: they indicate a protocol bug, not a recoverable condition.
//
//dsm:hotpath
func (d Diff) Apply(dst []uint64) {
	for i, buf := 1, d.buf; i < len(buf); {
		start, n := int(uint32(buf[i])), int(buf[i]>>32)
		i++
		if start+n > len(dst) {
			panic(fmt.Sprintf("twindiff: run [%d,%d) exceeds object of %d words", start, start+n, len(dst)))
		}
		if n == 1 {
			dst[start] = buf[i] // red-black rows: not worth a memmove call
		} else {
			copy(dst[start:], buf[i:i+n])
		}
		i += n
	}
}

// End returns one past the last word the diff writes, the last run's end
// (0 for the empty diff): the smallest object it applies to.
func (d Diff) End() (end int) {
	for b := d.runs(); len(b) > 0; b = b[1+int(b[0]>>32):] {
		end = int(uint32(b[0])) + int(b[0]>>32)
	}
	return end
}

// Equal reports whether d and o carry the same runs, as their encodings
// would show.
func (d Diff) Equal(o Diff) bool {
	return d.NumRuns() == o.NumRuns() && slices.Equal(d.runs(), o.runs())
}

// Empty reports whether the diff carries no modifications.
func (d Diff) Empty() bool { return len(d.buf) == 0 }

// NumRuns returns the number of runs.
func (d Diff) NumRuns() int {
	if d.Empty() {
		return 0
	}
	return int(d.buf[0])
}

// WordCount returns the number of modified words carried.
func (d Diff) WordCount() int { return len(d.runs()) - d.NumRuns() }

// WireSize returns the encoded size in bytes (a 4-byte run count, 8 bytes
// per run header and per word): what the network model charges for a diff.
func (d Diff) WireSize() int { return 4 + 8*len(d.runs()) }

// cursor walks a diff one modified word at a time.
type cursor struct {
	buf  []uint64 // unread tail: the current value first, or a header when left is 0
	idx  uint32   // word index of the current value
	left uint32   // values left in the open run; 0 once exhausted
}

// next steps past the current value, if any, and opens the run at a header.
func (c cursor) next() cursor {
	if c.left > 0 {
		c.buf, c.idx, c.left = c.buf[1:], c.idx+1, c.left-1
	}
	if c.left == 0 && len(c.buf) > 0 {
		c.buf, c.idx, c.left = c.buf[1:], uint32(c.buf[0]), uint32(c.buf[0]>>32)
	}
	return c
}

// Merge returns the diff equivalent to applying a, then b. Overlapping
// words take b's values. Used by the home when coalescing diffs from the
// same interval, and by property tests asserting apply-order equivalence.
// Runs are ordered and non-overlapping within each diff, so a two-pointer
// word-level merge produces the result in O(|a|+|b|) into one buffer.
func Merge(a, b Diff) Diff {
	if a.Empty() && b.Empty() {
		return Diff{}
	}
	out := make([]uint64, 1, len(a.buf)+len(b.buf))
	hdr, start, end := 0, uint64(0), uint64(0) // the open run: header index, extent
	ca, cb := cursor{buf: a.runs()}.next(), cursor{buf: b.runs()}.next()
	for ca.left > 0 || cb.left > 0 {
		var idx, v uint64
		if cb.left == 0 || ca.left > 0 && ca.idx < cb.idx {
			idx, v, ca = uint64(ca.idx), ca.buf[0], ca.next()
		} else {
			if ca.left > 0 && ca.idx == cb.idx {
				ca = ca.next() // the same word in both: b overwrites a
			}
			idx, v, cb = uint64(cb.idx), cb.buf[0], cb.next()
		}
		if hdr == 0 || idx != end {
			out[0]++
			hdr, start = len(out), idx
			out = append(out, 0)
		}
		out, end = append(out, v), idx+1
		out[hdr] = start | (end-start)<<32
	}
	return Diff{out}
}

// Encode appends the wire form of d to buf and returns the result: the
// count, then the words after it as one little-endian copy.
func (d Diff) Encode(buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(d.NumRuns()))
	return AppendWords(buf, d.runs())
}

// DecodeInto parses a diff from buf, returning the diff and the number of
// bytes consumed. It checks every run header in one pass before it takes
// a buffer from pool (nil pool = an exact-size allocation), then copies
// the runs in at once, and accepts only canonical diffs (see the package
// comment). The caller owns the diff's buffer.
func DecodeInto(pool *Pool, buf []byte) (Diff, int, error) {
	if len(buf) < 4 {
		return Diff{}, 0, fmt.Errorf("twindiff: truncated header")
	}
	n := binary.LittleEndian.Uint32(buf)
	rest := buf[4:]
	end := uint64(0) // one past the previous run's last word
	for i := uint32(0); i < n; i++ {
		if len(rest) < 8 {
			return Diff{}, 0, fmt.Errorf("twindiff: truncated run %d header", i)
		}
		h := binary.LittleEndian.Uint64(rest)
		start, cnt := h&math.MaxUint32, h>>32
		rest = rest[8:]
		if uint64(len(rest)) < 8*cnt {
			return Diff{}, 0, fmt.Errorf("twindiff: truncated run %d body", i)
		}
		if cnt == 0 || start < end || start+cnt > math.MaxUint32 {
			return Diff{}, 0, fmt.Errorf("twindiff: run %d [%d,+%d) is empty, out of order or out of range", i, start, cnt)
		}
		end = start + cnt
		rest = rest[8*cnt:]
	}
	off := len(buf) - len(rest)
	if n == 0 {
		return Diff{}, off, nil
	}
	words := pool.GetWords(1 + (off-4)/8)
	words[0] = uint64(n)
	ReadWords(words[1:], buf[4:off])
	return Diff{words}, off, nil
}
