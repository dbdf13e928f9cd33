//go:build race

package twindiff

// Under the race detector a pool poisons every buffer it takes back, so a
// use past the last use reads garbage — and a diff run header applied
// from it panics — instead of reading words that happen to be right
// until the buffer is drawn again.
const poisonPuts = true
