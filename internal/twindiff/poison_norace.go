//go:build !race

package twindiff

// poisonPuts is off outside the race detector (poison_race.go).
const poisonPuts = false
