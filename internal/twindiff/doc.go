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
// [start u32][len u32][values…] and Encode/Decode are one bulk copy. Runs
// are non-empty, increasing and non-overlapping: Compute, Merge and OneRun
// build only such diffs and Decode accepts no others; Apply and Merge rely
// on it.
//
// Ownership: only the node that computed a diff may PutDiff it, once the
// home has acknowledged it. A receiver must not: the virtual-time engine
// delivers messages by reference, so the diff the home applies is the
// sender's buffer, still in the sender's outstanding set. A decoded diff is
// a private exact-size buffer left to the GC — as is any pooled buffer that
// is lost track of (a piggybacked diff is never acknowledged directly), or
// that is Put to a Pool already holding its bound of maxFree buffers.
package twindiff
