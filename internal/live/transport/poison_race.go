//go:build race

package transport

// Under the race detector PutFrame poisons every frame it takes back, so
// a use past the last use reads bytes no encoder writes instead of a
// frame that stays intact until it is drawn again.
const poisonFrames = true
