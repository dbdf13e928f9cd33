// Package twindiff implements the twin-and-diff technique of TreadMarks
// [Keleher et al. 1994] as used by the home-based protocol (paper §1, §3.1):
// before a cached copy is first written, a twin (snapshot) is taken; at
// release time the diff — the set of words that changed relative to the
// twin — is computed and propagated to the object's home, where it is
// applied to the home copy. Word granularity (8 bytes) matches the
// object-based GOS, whose coherence unit is a Java object whose fields are
// word-sized.
//
// Layout: a Diff is one []uint64. Word 0 is the run count; each run is a
// header word start|len<<32 followed by its len new values, so the words
// after the count, read as little-endian bytes, are the wire form
// [start u32][len u32][values…] and Encode/DecodeInto are one bulk copy
// (words.go: on a little-endian host, a copy of the words' memory). Runs
// are non-empty, increasing and non-overlapping: Compute, Merge and
// OneRun build only such diffs and DecodeInto accepts no others; Apply and
// Merge rely on it.
//
// Ownership: whoever produced a buffer returns it, once, at its last
// use. A node that computed a diff may PutDiff it once the home has
// acknowledged it — never at send, since it may be resent. Its receiver
// may not on the virtual-time engine, which delivers messages by
// reference: the diff the home applies is the sender's buffer, still in
// the sender's outstanding set. The live engine delivers a copy: the
// receiver decodes into buffers drawn from its own pool (DecodeInto),
// owns them and returns a diff once it has applied or re-encoded it. A
// buffer that is lost track of (a piggybacked diff on the sender's side
// is never acknowledged directly), or Put to a Pool already holding its
// bound of maxFree buffers, is left to the GC.
package twindiff
