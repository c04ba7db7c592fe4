//go:build race

package exec

// raceEnabled reports a race-detector build. Under it sync.Pool drops a
// random share of its Puts, so allocation guards over pool-backed code
// (fmt's printer state) count objects production never pays for.
const raceEnabled = true
