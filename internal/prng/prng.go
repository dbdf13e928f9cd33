// Package prng is the repository's single deterministic random-number
// helper. Every component that needs seeded randomness — application
// input generation (internal/apps), trial-seed derivation
// (internal/bench), the randomized scenario engine
// (internal/scenario) and the coherence fuzzers — draws from here, so
// streams are stable across Go releases (no math/rand) and across
// packages (no drifting private copies of the same generator).
//
// Two primitives cover every use:
//
//   - Rand, a xorshift64* sequential generator for "give me the next
//     value" call sites;
//   - Mix, a splitmix64 finalizer for "derive an independent seed from
//     an index" call sites (trial seeds, per-phase sub-streams).
//
// The constants are the reference ones (Vigna, "An experimental
// exploration of Marsaglia's xorshift generators, scrambled"; Steele,
// Lea & Flood, "Fast splittable pseudorandom number generators"), and
// they are frozen: golden determinism tests pin outputs produced through
// this package, so changing either algorithm is a breaking change.
package prng

// DefaultSeed replaces a zero seed in New, so the zero value of a
// config still produces a usable, fixed stream (the golden-run inputs
// of internal/apps are generated from it).
const DefaultSeed uint64 = 0x9E3779B97F4A7C15

// Rand is a xorshift64* generator. It is deliberately tiny — a single
// word of state, inlineable step — because simulation inputs are
// generated in hot setup loops.
type Rand struct{ s uint64 }

// New returns a generator seeded with seed; a zero seed is replaced by
// DefaultSeed (xorshift has an all-zero fixed point).
func New(seed uint64) *Rand {
	if seed == 0 {
		seed = DefaultSeed
	}
	return &Rand{s: seed}
}

// Next returns the next 64-bit value of the stream.
//
//dsm:hotpath
func (r *Rand) Next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545F4914F6CDD1D
}

// Intn returns a deterministic value in [0, n). n must be positive.
func (r *Rand) Intn(n int) int { return int(r.Next() % uint64(n)) }

// Uint64 returns the next value of the stream (alias of Next, for call
// sites ported from math/rand).
func (r *Rand) Uint64() uint64 { return r.Next() }

// Uint32 returns the high half of the next value (xorshift64*'s upper
// bits are the better-scrambled ones).
func (r *Rand) Uint32() uint32 { return uint32(r.Next() >> 32) }

// Float64 returns a deterministic value in [0, 1).
func (r *Rand) Float64() float64 { return float64(r.Next()>>11) / (1 << 53) }

// Mix is the splitmix64 finalizer: a bijective avalanche of x. Feeding
// it a counter (index, trial number, phase) yields an independent-
// looking seed stream with no visible structure — the property the
// multi-trial sweeps rely on.
//
//dsm:hotpath
func Mix(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
