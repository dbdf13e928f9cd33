//go:build !race

package live

// raceDetector reports a build under the race detector (race_test.go).
const raceDetector = false
