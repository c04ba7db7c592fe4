package main

import (
	"math"
	"runtime"
	"slices"
	"time"
)

// opLog is one closed-loop client's record of its operations. Each
// client goroutine owns its log, so it needs no locking.
type opLog struct {
	lat       []time.Duration // latency of every completed operation
	byKey     map[string][]time.Duration
	busy      time.Duration // time spent waiting on the system
	attempted int
	failed    int
	problems  []string
}

// done records an operation that returned; ok is false when its answer
// was refused, failed, or did not check out.
func (o *opLog) done(d time.Duration, ok bool, problem string) {
	o.attempted++
	o.lat = append(o.lat, d)
	o.busy += d
	if !ok {
		o.fail(problem)
	}
}

// keyed also files latency d under key, for the per-query breakdown.
func (o *opLog) keyed(key string, d time.Duration) {
	if o.byKey == nil {
		o.byKey = map[string][]time.Duration{}
	}
	o.byKey[key] = append(o.byKey[key], d)
}

// check counts a check that is not timed as an operation.
func (o *opLog) check(ok bool, problem string) {
	o.attempted++
	if !ok {
		o.fail(problem)
	}
}

// fail counts a failure that has no latency of its own.
func (o *opLog) fail(problem string) {
	o.failed++
	if len(o.problems) < 5 {
		o.problems = append(o.problems, problem)
	}
}

// mergeLogs pools several clients' latencies; rate is the sum over
// clients of completed operations per second of waiting, so the answer
// checks a client runs between operations do not count against the
// system.
func mergeLogs(logs []*opLog) (lat []time.Duration, rate float64) {
	for _, o := range logs {
		lat = append(lat, o.lat...)
		if o.busy > 0 {
			rate += float64(len(o.lat)) / o.busy.Seconds()
		}
	}
	slices.Sort(lat)
	return lat, rate
}

// quantileMS returns the q-quantile of sorted latencies in milliseconds
// (nearest rank), or 0 without samples.
func quantileMS(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	i = max(0, min(i, len(sorted)-1))
	return float64(sorted[i].Nanoseconds()) / 1e6
}

// tailQuantile is the highest quantile, at most 0.99, that leaves at
// least ten samples beyond it.
func tailQuantile(n int) float64 {
	if n <= 20 {
		return 0.5
	}
	return min(0.99, 1-10/float64(n))
}

// median of a sample; 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// settle collects the garbage input generation left, so every timed
// set-up starts from the same collector state, and returns the time.
func settle() time.Time {
	runtime.GC()
	return time.Now()
}

// liveHeapMB forces a full collection and returns the live heap in MiB.
// heap_mb is the growth of the live heap over a set-up, so that the
// benchmark's own latency logs, which grow as a run goes on, do not
// count.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
