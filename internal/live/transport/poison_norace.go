//go:build !race

package transport

// poisonFrames is off outside the race detector (poison_race.go).
const poisonFrames = false
