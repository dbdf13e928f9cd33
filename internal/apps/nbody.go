package apps

import (
	"fmt"
	"math"

	dsm "repro"
)

// Nbody simulates gravitating particles with the Barnes–Hut algorithm
// (§5.1 application 3; the paper uses 2048 particles). Bodies are packed
// into chunk objects; every step each thread reads all chunks, builds a
// local quadtree, computes forces for its assignment and writes the next
// state. Bodies are dealt round-robin to threads, so every chunk object
// is written by many nodes in each interval — a genuine multiple-writer
// pattern, which is why the paper finds "home migration has little
// impact on ... Nbody" ("due to the lack of single-writer pattern").

// nbodyChunk is the number of bodies per shared object.
const nbodyChunk = 16

// body is a 2-D particle.
type body struct {
	x, y, vx, vy, mass float64
}

// quadtree for Barnes–Hut force evaluation.
type quadNode struct {
	// Square region [cx±half, cy±half].
	cx, cy, half float64
	mass         float64 // total mass
	mx, my       float64 // center of mass
	kids         [4]*quadNode
	leafBody     int // index of the single body, -1 if none/internal
	internal     bool
}

func newQuad(cx, cy, half float64) *quadNode {
	return &quadNode{cx: cx, cy: cy, half: half, leafBody: -1}
}

func (q *quadNode) insert(bs []body, i int) {
	b := bs[i]
	// Degenerate-cell guard: coincident or runaway bodies would split
	// forever; below a minimum cell size they are aggregated into the
	// node's mass moments instead (identical in the DSM run and the
	// sequential reference, so validation is unaffected).
	if q.half < 1e-9 {
		if q.mass > 0 {
			q.mx = (q.mx*q.mass + b.x*b.mass) / (q.mass + b.mass)
			q.my = (q.my*q.mass + b.y*b.mass) / (q.mass + b.mass)
			q.mass += b.mass
		} else {
			q.mass, q.mx, q.my = b.mass, b.x, b.y
		}
		q.internal = false
		q.leafBody = -1
		return
	}
	if !q.internal && q.leafBody < 0 {
		q.leafBody = i
		q.mass = b.mass
		q.mx, q.my = b.x, b.y
		return
	}
	if !q.internal {
		// Split: push the existing leaf down.
		old := q.leafBody
		q.leafBody = -1
		q.internal = true
		q.route(bs, old)
	}
	q.route(bs, i)
	// Recompute aggregate mass/center incrementally.
	q.mx = (q.mx*q.mass + b.x*b.mass) / (q.mass + b.mass)
	q.my = (q.my*q.mass + b.y*b.mass) / (q.mass + b.mass)
	q.mass += b.mass
}

func (q *quadNode) route(bs []body, i int) {
	b := bs[i]
	idx := 0
	cx, cy := q.cx-q.half/2, q.cy-q.half/2
	if b.x >= q.cx {
		idx |= 1
		cx = q.cx + q.half/2
	}
	if b.y >= q.cy {
		idx |= 2
		cy = q.cy + q.half/2
	}
	if q.kids[idx] == nil {
		q.kids[idx] = newQuad(cx, cy, q.half/2)
	}
	q.kids[idx].insert(bs, i)
}

// force accumulates the Barnes–Hut force on body i with opening angle θ.
func (q *quadNode) force(bs []body, i int, theta float64, fx, fy *float64) {
	if q == nil || q.mass == 0 {
		return
	}
	b := bs[i]
	dx, dy := q.mx-b.x, q.my-b.y
	d2 := dx*dx + dy*dy + 1e-4 // softening (also bounds close-encounter forces)
	if q.leafBody == i {
		return
	}
	if !q.internal || (2*q.half)*(2*q.half) < theta*theta*d2 {
		d := math.Sqrt(d2)
		f := q.mass / (d2 * d) // G = 1, unit masses scale
		*fx += f * dx
		*fy += f * dy
		return
	}
	for _, k := range q.kids {
		k.force(bs, i, theta, fx, fy)
	}
}

// nbodyInit builds the deterministic initial body set in the unit square.
func nbodyInit(n int, seed uint64) []body {
	r := newRng(mixSeed(uint64(n)*40503+7, seed))
	bs := make([]body, n)
	for i := range bs {
		bs[i] = body{
			x: r.Float64(), y: r.Float64(),
			vx: (r.Float64() - 0.5) * 1e-3, vy: (r.Float64() - 0.5) * 1e-3,
			mass: 0.5 + r.Float64(),
		}
	}
	return bs
}

// nbodyTree builds the quadtree over bs.
func nbodyTree(bs []body) *quadNode {
	root := newQuad(0.5, 0.5, 4) // generous bounds; bodies drift slowly
	for i := range bs {
		root.insert(bs, i)
	}
	return root
}

// leapfrog returns body i advanced one step of dt under the tree's force.
// The sequential reference and the DSM workers both step through it, so
// validation can compare bit for bit.
func (q *quadNode) leapfrog(bs []body, i int, theta, dt float64) body {
	var fx, fy float64
	q.force(bs, i, theta, &fx, &fy)
	nb := bs[i]
	nb.vx += fx / nb.mass * dt
	nb.vy += fy / nb.mass * dt
	nb.x += nb.vx * dt
	nb.y += nb.vy * dt
	return nb
}

// nbodyStep advances all bodies one leapfrog step using a fresh quadtree.
func nbodyStep(bs []body, theta, dt float64) []body {
	root := nbodyTree(bs)
	next := make([]body, len(bs))
	for i := range bs {
		next[i] = root.leapfrog(bs, i, theta, dt)
	}
	return next
}

// nbodySequential runs the reference simulation.
func nbodySequential(n, steps int, theta, dt float64, seed uint64) []body {
	bs := nbodyInit(n, seed)
	for s := 0; s < steps; s++ {
		bs = nbodyStep(bs, theta, dt)
	}
	return bs
}

const (
	nbodyTheta = 0.5
	nbodyDt    = 1e-3
	// words per body in the shared representation: x, y, vx, vy (mass is
	// immutable and kept in a read-only array faulted once).
	nbodyWords = 4
)

// RunNBody runs the DSM Barnes–Hut simulation and validates it against
// the sequential reference bit-for-bit.
func RunNBody(n, steps int, o Options) (Result, error) {
	if n < nbodyChunk || n%nbodyChunk != 0 {
		return Result{}, fmt.Errorf("nbody: n must be a positive multiple of %d, got %d", nbodyChunk, n)
	}
	p := o.threads()
	c, rec, err := o.cluster()
	if err != nil {
		return Result{}, err
	}
	chunks := n / nbodyChunk
	// Double-buffered chunk arrays; the step's writers fill `next`.
	bufs := [2]*dsm.Array{
		c.NewArray("bodies0", chunks, nbodyChunk*nbodyWords, dsm.RoundRobin),
		c.NewArray("bodies1", chunks, nbodyChunk*nbodyWords, dsm.RoundRobin),
	}
	masses := c.NewArray("mass", chunks, nbodyChunk, dsm.RoundRobin)
	init := nbodyInit(n, o.Seed)
	for ch := 0; ch < chunks; ch++ {
		ch := ch
		bufs[0].InitRow(ch, func(w []uint64) {
			for k := 0; k < nbodyChunk; k++ {
				b := init[ch*nbodyChunk+k]
				w[k*nbodyWords+0] = math.Float64bits(b.x)
				w[k*nbodyWords+1] = math.Float64bits(b.y)
				w[k*nbodyWords+2] = math.Float64bits(b.vx)
				w[k*nbodyWords+3] = math.Float64bits(b.vy)
			}
		})
		masses.InitRow(ch, func(w []uint64) {
			for k := 0; k < nbodyChunk; k++ {
				w[k] = math.Float64bits(init[ch*nbodyChunk+k].mass)
			}
		})
	}
	bar := c.NewBarrier(0, p)

	m, err := c.Run(p, func(t dsm.Thread) {
		me := t.ID()
		// Private mass table: immutable data is read once, as the GOS's
		// object-pushing optimization would deliver it.
		mass := make([]float64, n)
		for ch := 0; ch < chunks; ch++ {
			row := masses.RowView(t, ch)
			for k := 0; k < nbodyChunk; k++ {
				mass[ch*nbodyChunk+k] = math.Float64frombits(row[k])
			}
		}
		bs := make([]body, n)
		for s := 0; s < steps; s++ {
			cur, next := bufs[s%2], bufs[(s+1)%2]
			// Gather the full body set and build the local quadtree.
			for ch := 0; ch < chunks; ch++ {
				row := cur.RowView(t, ch)
				for k := 0; k < nbodyChunk; k++ {
					i := ch*nbodyChunk + k
					bs[i] = body{
						x:    math.Float64frombits(row[k*nbodyWords+0]),
						y:    math.Float64frombits(row[k*nbodyWords+1]),
						vx:   math.Float64frombits(row[k*nbodyWords+2]),
						vy:   math.Float64frombits(row[k*nbodyWords+3]),
						mass: mass[i],
					}
				}
			}
			root := nbodyTree(bs)
			// Round-robin body ownership, rotating one position per
			// step: every chunk is written by many nodes in every
			// interval (their per-body word ranges are disjoint, so the
			// multiple-writer twin/diff machinery merges them at the
			// home). This is "the lack of single-writer pattern" (§5.1)
			// that makes home migration neutral for Nbody.
			for i := 0; i < n; i++ {
				if (i+s)%p != me {
					continue
				}
				ch, k := i/nbodyChunk, i%nbodyChunk
				w := next.RowWriteView(t, ch)
				nb := root.leapfrog(bs, i, nbodyTheta, nbodyDt)
				w[k*nbodyWords+0] = math.Float64bits(nb.x)
				w[k*nbodyWords+1] = math.Float64bits(nb.y)
				w[k*nbodyWords+2] = math.Float64bits(nb.vx)
				w[k*nbodyWords+3] = math.Float64bits(nb.vy)
				t.Compute(nbodyForceCost)
			}
			t.Barrier(bar)
		}
	})
	if err != nil {
		return Result{}, fmt.Errorf("nbody: %w", err)
	}

	res := Result{App: fmt.Sprintf("Nbody(n=%d,steps=%d,p=%d,%s)", n, steps, p, c.PolicyName()), Metrics: m}
	return finish(c, o, rec, res, func() error {
		want := nbodySequential(n, steps, nbodyTheta, nbodyDt, o.Seed)
		final := bufs[steps%2]
		for ch := 0; ch < chunks; ch++ {
			got := final.DataFloat64(ch)
			for k := 0; k < nbodyChunk; k++ {
				i := ch*nbodyChunk + k
				if got[k*nbodyWords] != want[i].x || got[k*nbodyWords+1] != want[i].y {
					return fmt.Errorf("nbody: body %d = (%g,%g), want (%g,%g)",
						i, got[k*nbodyWords], got[k*nbodyWords+1], want[i].x, want[i].y)
				}
			}
		}
		return nil
	})
}
