//go:build !race

package exec

// raceEnabled reports a race-detector build (see race_test.go).
const raceEnabled = false
