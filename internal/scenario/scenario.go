// Package scenario generates the seeded random shared-memory programs
// behind the coherence gates: programs in the access-pattern families the
// adaptive-home-migration literature cares about, with their reference
// semantics computed in plain Go. It knows no engine: a Program exports
// its script — the initial memory, the per-thread workers and the memory
// the model expects afterwards — and apps.RunScenario runs it as an
// application like SOR or ASP, on either engine or a dsmnode cluster.
//
// Every generated program is deterministic by construction — within a
// barrier phase each word has one writer (or is guarded by one lock and
// updated commutatively), and checked reads only target words that are
// stable in their phase — so three independent verdicts are available
// for each run:
//
//  1. model check: every checked read returns the value the pure-Go
//     model predicts, and the final shared memory equals the model's;
//  2. oracle check: the recorded log is LRC-legal (internal/oracle);
//  3. policy independence: the final-memory digest is identical under
//     every policy in migration.Builtins, because migration may change
//     cost but never results (internal/bench's verdict sweeps).
//
// Families: hot-object lock contention, false sharing (strided writers
// in one object), migratory access (rotating whole-object writer),
// lock-chained producer/consumer, and barrier-phased stencil.
package scenario

import (
	"fmt"

	"repro/internal/memory"
	"repro/internal/prng"
	"repro/internal/proto"
)

// Family names an access-pattern family.
type Family uint8

// The generated access-pattern families.
const (
	HotObject Family = iota
	FalseSharing
	Migratory
	ProducerConsumer
	Stencil
	numFamilies
)

func (f Family) String() string {
	switch f {
	case HotObject:
		return "hot-object"
	case FalseSharing:
		return "false-sharing"
	case Migratory:
		return "migratory"
	case ProducerConsumer:
		return "producer-consumer"
	case Stencil:
		return "stencil"
	default:
		return fmt.Sprintf("family(%d)", uint8(f))
	}
}

// step opcodes.
type opcode uint8

const (
	opRead      opcode = iota // checked read: value must equal want
	opWrite                   // plain write of val
	opLockedAdd               // Acquire(lock); Read; Write(+val); Release
)

// step is one scripted action of a thread within a phase.
type step struct {
	op        opcode
	obj, word int
	val, want uint64
	lock      int
}

// Program is one generated scenario: a phase-structured script per
// thread plus the model's expected outcomes.
type Program struct {
	Seed    uint64
	Family  Family
	Nodes   int
	Threads int
	Words   []int // words per object
	Homes   []int // initial home per object
	Locks   int
	Phases  int

	steps [][][]step // [thread][phase][]step
	init  [][]uint64 // initial object contents
	final [][]uint64 // model final memory
}

// loc addresses one word.
type loc struct{ obj, word int }

// Generate builds the program for a seed. The same seed always yields
// the same program; different seeds vary family, cluster size, object
// shapes, phase count and access mix.
func Generate(seed uint64) *Program {
	r := prng.New(prng.Mix(seed) | 1)
	p := &Program{
		Seed:   seed,
		Family: Family(r.Intn(int(numFamilies))),
		Nodes:  2 + r.Intn(4), // 2..5
		Phases: 2 + r.Intn(5), // 2..6
	}
	p.Threads = p.Nodes
	if p.Family == HotObject && r.Intn(3) == 0 {
		// Sometimes co-locate two threads on one node: exercises
		// same-node lock handoff and the diff-boomerang path.
		p.Threads = p.Nodes + 1
	}
	g := &generator{p: p, r: r}
	switch p.Family {
	case HotObject:
		g.genHotObject()
	case FalseSharing:
		g.genFalseSharing()
	case Migratory:
		g.genMigratory()
	case ProducerConsumer:
		g.genProducerConsumer()
	case Stencil:
		g.genStencil()
	}
	g.finish()
	return p
}

// Initial returns the objects' contents before the run and Expected the
// model's final memory (one slice per object, Words[o] long).
func (p *Program) Initial() [][]uint64  { return p.init }
func (p *Program) Expected() [][]uint64 { return p.final }

// CheckedReads counts the program's checked reads. A run that completes
// executes every one of them, so a sweep's total is a property of its
// programs, not a field of their results.
func (p *Program) CheckedReads() int {
	n := 0
	for _, phases := range p.steps {
		for _, steps := range phases {
			for _, s := range steps {
				if s.op == opRead {
					n++
				}
			}
		}
	}
	return n
}

// Workers returns the program's threads, thread t on node t mod Nodes,
// acting on the declared state: objs[o] is an object of Words[o] words
// homed at Homes[o] and holding Initial()[o], locks[l] a lock managed by
// node l mod Nodes, bar a barrier of Threads parties. A checked read that
// disagrees with the model is reported to mismatch (from the thread that
// saw it, so concurrently) and the thread carries on.
func (p *Program) Workers(objs []memory.ObjectID, locks []proto.LockID, bar proto.BarrierID, mismatch func(error)) []proto.Worker {
	workers := make([]proto.Worker, p.Threads)
	for t := range workers {
		script := p.steps[t]
		workers[t] = proto.Worker{
			Node: memory.NodeID(t % p.Nodes),
			Name: fmt.Sprintf("s%d", t),
			Fn: func(th proto.Thread) {
				for ph := range script {
					for _, s := range script[ph] {
						switch s.op {
						case opRead:
							if got := th.Read(objs[s.obj], s.word); got != s.want {
								mismatch(fmt.Errorf("phase %d thread %d: read obj %d word %d = %#x, want %#x",
									ph, t, s.obj, s.word, got, s.want))
							}
						case opWrite:
							th.Write(objs[s.obj], s.word, s.val)
						case opLockedAdd:
							th.Acquire(locks[s.lock])
							v := th.Read(objs[s.obj], s.word)
							th.Write(objs[s.obj], s.word, v+s.val)
							th.Release(locks[s.lock])
						}
					}
					th.Barrier(bar)
				}
			},
		}
	}
	return workers
}

// generator accumulates the script while maintaining the pure-Go model.
// Each phase runs through a strict lifecycle: beginPhase, then register
// every write/locked word (planWrite/lockedAdd), then checkedReads —
// which consult the now-complete plan to target only stable words — and
// finally endPhase, which seals each thread's step list with its reads
// ahead of its writes (so a thread reading a word it overwrites this
// phase still observes the pre-phase value) and folds the phase into
// the model memory.
type generator struct {
	p   *Program
	r   *prng.Rand
	mem [][]uint64 // current model memory

	// per-phase working state
	writer map[loc]int    // word → its single plain writer this phase
	locked map[loc]int    // word → guarding lock this phase
	writes map[loc]uint64 // plain-write values to commit
	added  map[loc]uint64 // locked-add sums to commit
	reads  [][]step       // checked reads per thread
	acts   [][]step       // writes/locked adds per thread
}

// addObject declares an object with deterministic nonzero initial
// contents and returns its index. Objects must be declared before the
// first phase.
func (g *generator) addObject(words int) int {
	p := g.p
	o := len(p.Words)
	p.Words = append(p.Words, words)
	p.Homes = append(p.Homes, g.r.Intn(p.Nodes))
	data := make([]uint64, words)
	for w := range data {
		data[w] = prng.Mix(p.Seed^uint64(o*1009+w)^0xA5A5) | 1
	}
	p.init = append(p.init, data)
	g.mem = append(g.mem, append([]uint64(nil), data...))
	return o
}

// locsOf lists every word of an object.
func (g *generator) locsOf(obj int) []loc {
	ls := make([]loc, g.p.Words[obj])
	for w := range ls {
		ls[w] = loc{obj, w}
	}
	return ls
}

// value derives a distinct write value for (phase, thread, counter).
func (g *generator) value(ph, t, k int) uint64 {
	return prng.Mix(g.p.Seed^uint64(ph)<<40^uint64(t)<<20^uint64(k)^0x5C5C) | 1
}

func (g *generator) beginPhase() {
	p := g.p
	if p.steps == nil {
		p.steps = make([][][]step, p.Threads)
		for t := range p.steps {
			p.steps[t] = make([][]step, 0, p.Phases)
		}
	}
	g.writer = map[loc]int{}
	g.locked = map[loc]int{}
	g.writes = map[loc]uint64{}
	g.added = map[loc]uint64{}
	g.reads = make([][]step, p.Threads)
	g.acts = make([][]step, p.Threads)
}

// guard registers every word of obj as guarded by lock this phase.
func (g *generator) guard(obj, lock int) {
	for _, l := range g.locsOf(obj) {
		g.locked[l] = lock
	}
}

// planWrite schedules thread t's plain write of val to l.
func (g *generator) planWrite(t int, l loc, val uint64) {
	g.writer[l] = t
	g.writes[l] = val
	g.acts[t] = append(g.acts[t], step{op: opWrite, obj: l.obj, word: l.word, val: val})
}

// lockedAdd schedules a commutative add of d to l under lock.
func (g *generator) lockedAdd(t int, l loc, d uint64, lock int) {
	g.added[l] += d
	g.acts[t] = append(g.acts[t], step{op: opLockedAdd, obj: l.obj, word: l.word, val: d, lock: lock})
}

// checkedReads emits up to cnt checked reads for thread t over the
// candidate words, skipping words that are unstable this phase (locked,
// or plain-written by a different thread).
func (g *generator) checkedReads(t, cnt int, cands []loc) {
	for i := 0; i < cnt && len(cands) > 0; i++ {
		l := cands[g.r.Intn(len(cands))]
		if _, isLocked := g.locked[l]; isLocked {
			continue
		}
		if w, written := g.writer[l]; written && w != t {
			continue
		}
		g.reads[t] = append(g.reads[t], step{op: opRead, obj: l.obj, word: l.word, want: g.mem[l.obj][l.word]})
	}
}

// endPhase seals the phase: each thread's checked reads run before its
// writes, and the model memory advances.
func (g *generator) endPhase() {
	for t := range g.p.steps {
		g.p.steps[t] = append(g.p.steps[t], append(g.reads[t], g.acts[t]...))
	}
	for l, v := range g.writes {
		g.mem[l.obj][l.word] = v
	}
	for l, d := range g.added {
		g.mem[l.obj][l.word] += d
	}
}

// finish snapshots the model as the program's expected final memory.
func (g *generator) finish() {
	for _, data := range g.mem {
		g.p.final = append(g.p.final, append([]uint64(nil), data...))
	}
}

// genHotObject: every thread hammers one or two small lock-guarded
// objects with commutative adds; a scratch object rotates through
// single writers to give checked reads. The lock chain serializes the
// adds, so the oracle demands each in-section read see the hb-latest
// sum — the pattern a skipped diff flush breaks first.
func (g *generator) genHotObject() {
	p, r := g.p, g.r
	hot := 1 + r.Intn(2)
	for o := 0; o < hot; o++ {
		g.addObject(1 + r.Intn(4))
	}
	scratch := g.addObject(2 + r.Intn(4))
	p.Locks = hot
	scratchLocs := g.locsOf(scratch)
	for ph := 0; ph < p.Phases; ph++ {
		g.beginPhase()
		for o := 0; o < hot; o++ {
			g.guard(o, o)
		}
		scribe := ph % p.Threads // this phase's scratch writer
		for k, l := range scratchLocs {
			g.planWrite(scribe, l, g.value(ph, scribe, k))
		}
		for t := 0; t < p.Threads; t++ {
			g.checkedReads(t, 1+r.Intn(2), scratchLocs)
			adds := 2 + r.Intn(4)
			for i := 0; i < adds; i++ {
				o := r.Intn(hot)
				g.lockedAdd(t, loc{o, r.Intn(p.Words[o])}, uint64(1+r.Intn(9)), o)
			}
		}
		g.endPhase()
	}
}

// genFalseSharing: all threads write the same object every phase, on
// strided disjoint words — the multiple-writer pattern twin/diff merge
// must get right — and check-read each other's resting words.
func (g *generator) genFalseSharing() {
	p, r := g.p, g.r
	objs := 1 + r.Intn(2)
	var all []loc
	for o := 0; o < objs; o++ {
		g.addObject(p.Threads * (1 + r.Intn(3)))
		all = append(all, g.locsOf(o)...)
	}
	for ph := 0; ph < p.Phases; ph++ {
		g.beginPhase()
		// Thread t owns words ≡ t (mod Threads) of every object: maximal
		// interleaving, the classic false-sharing layout. Some words rest
		// each phase and become stable read targets.
		for _, l := range all {
			t := l.word % p.Threads
			if r.Intn(4) == 0 {
				continue
			}
			g.planWrite(t, l, g.value(ph, t, l.obj<<8|l.word))
		}
		for t := 0; t < p.Threads; t++ {
			g.checkedReads(t, 2+r.Intn(3), all)
		}
		g.endPhase()
	}
}

// genMigratory: one token object migrates around the cluster — each
// phase's owner reads the whole object (checked against the previous
// owner's writes) and rewrites it. The lasting single-writer runs are
// exactly what the adaptive threshold is built to detect.
func (g *generator) genMigratory() {
	p, r := g.p, g.r
	token := g.addObject(2 + r.Intn(7))
	aux := g.addObject(1 + r.Intn(3))
	tokenLocs, auxLocs := g.locsOf(token), g.locsOf(aux)
	// A lasting owner holds the token for a run of phases before it
	// moves on (run length varies by seed: exercises both sides of the
	// migration threshold).
	run := 1 + r.Intn(3)
	for ph := 0; ph < p.Phases; ph++ {
		g.beginPhase()
		owner := (ph / run) % p.Threads
		for k, l := range tokenLocs {
			g.planWrite(owner, l, g.value(ph, owner, k))
		}
		if ph%2 == 1 {
			scribe := (owner + 1) % p.Threads
			for k, l := range auxLocs {
				g.planWrite(scribe, l, g.value(ph, scribe, 100+k))
			}
		}
		// The owner checks the previous owner's values before rewriting;
		// bystanders read the aux object.
		g.checkedReads(owner, len(tokenLocs), tokenLocs)
		for t := 0; t < p.Threads; t++ {
			if t != owner {
				g.checkedReads(t, 1+r.Intn(2), auxLocs)
			}
		}
		g.endPhase()
	}
}

// genProducerConsumer: a rotating producer fills slot words in even
// phases; consumers verify them and post per-consumer acks in odd
// phases; the producer verifies the acks one phase later.
func (g *generator) genProducerConsumer() {
	p, r := g.p, g.r
	slots := g.addObject(p.Threads * (1 + r.Intn(2)))
	acks := g.addObject(p.Threads)
	slotLocs := g.locsOf(slots)
	for ph := 0; ph < p.Phases; ph++ {
		g.beginPhase()
		producer := (ph / 2) % p.Threads
		if ph%2 == 0 {
			// Producer fills the slots; everyone else verifies the acks
			// of the previous round.
			for k, l := range slotLocs {
				g.planWrite(producer, l, g.value(ph, producer, k))
			}
			for t := 0; t < p.Threads; t++ {
				if t != producer {
					g.checkedReads(t, 1, []loc{{acks, t}})
				}
			}
		} else {
			// Consumers verify the freshly produced slots and ack.
			for t := 0; t < p.Threads; t++ {
				if t != producer {
					g.planWrite(t, loc{acks, t}, g.value(ph, t, 500))
				}
			}
			for t := 0; t < p.Threads; t++ {
				if t != producer {
					g.checkedReads(t, 1+r.Intn(3), slotLocs)
				}
			}
			g.checkedReads(producer, 2, slotLocs)
		}
		g.endPhase()
	}
}

// genStencil: a double-buffered ring of cells; each phase every thread
// recomputes its block in the destination buffer from the source
// buffer's neighborhood (checked reads cross block boundaries, the
// classic stencil sharing pattern).
func (g *generator) genStencil() {
	p, r := g.p, g.r
	cells := p.Threads * (2 + r.Intn(3))
	bufA := g.addObject(cells)
	bufB := g.addObject(cells)
	bufs := [2]int{bufA, bufB}
	for ph := 0; ph < p.Phases; ph++ {
		g.beginPhase()
		src, dst := bufs[ph%2], bufs[(ph+1)%2]
		per := cells / p.Threads
		for t := 0; t < p.Threads; t++ {
			lo, hi := t*per, (t+1)*per
			if t == p.Threads-1 {
				hi = cells
			}
			for i := lo; i < hi; i++ {
				left, right := (i+cells-1)%cells, (i+1)%cells
				// The new value folds the source neighborhood, which the
				// model knows exactly; the run checks the reads and then
				// stores the precomputed fold.
				v := prng.Mix(g.mem[src][left]^g.mem[src][i]<<1^g.mem[src][right]<<2^uint64(ph)) | 1
				g.reads[t] = append(g.reads[t],
					step{op: opRead, obj: src, word: left, want: g.mem[src][left]},
					step{op: opRead, obj: src, word: i, want: g.mem[src][i]},
					step{op: opRead, obj: src, word: right, want: g.mem[src][right]})
				g.planWrite(t, loc{dst, i}, v)
			}
		}
		g.endPhase()
	}
}
