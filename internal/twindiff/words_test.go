package twindiff

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/prng"
)

// TestWordCodecMatchesPerWordLoop: the bulk word codec (one copy of the
// words' memory on a little-endian host) writes and reads exactly what
// the per-word little-endian loop does, at any length and from a source
// at an unaligned offset.
func TestWordCodecMatchesPerWordLoop(t *testing.T) {
	r := prng.New(42)
	for _, n := range []int{0, 1, 2, 7, 128, 256, 1031} {
		words := make([]uint64, n)
		for i := range words {
			words[i] = r.Uint64()
		}
		prefix := []byte{0xAA, 0xBB, 0xCC}
		bulk := AppendWords(slices.Clone(prefix), words)
		loop := appendWordsLoop(slices.Clone(prefix), words)
		if !bytes.Equal(bulk, loop) {
			t.Fatalf("n=%d: AppendWords %x, per-word loop %x", n, bulk, loop)
		}
		// The words start at an odd offset: the bulk read copies
		// bytes, so it needs no alignment.
		src := bulk[len(prefix):]
		got, want := make([]uint64, n), make([]uint64, n)
		ReadWords(got, src)
		readWordsLoop(want, src)
		if !slices.Equal(got, want) || !slices.Equal(got, words) {
			t.Fatalf("n=%d: ReadWords %v, per-word loop %v, encoded %v", n, got, want, words)
		}
	}
}
