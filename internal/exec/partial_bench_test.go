package exec

import (
	"fmt"
	"testing"

	"kaskade/internal/datagen"
	"kaskade/internal/graph"
)

// The BenchmarkPartialAgg* family measures the aggregate path's
// sequential-equivalent overhead: on a single-CPU host, the parallel
// path at workers=N cannot beat the sequential matcher, so any gap
// between "seq" and the worker variants is pure coordination cost. The
// buffered strategy pays for materializing every prepared yield and
// replaying it at merge time (~30% on these shapes before partial
// merging existed); the partial strategy folds yields into per-chunk
// accumulators as they happen and must stay within a few percent of
// sequential. On multi-core hosts the same variants show the speedup
// instead. Each shape runs in the strategy the planner selects for it.

func partialBenchGraph(b *testing.B) *graph.Graph {
	b.Helper()
	g, err := datagen.SocialNetwork(datagen.SocialConfig{
		Users: 600, Edges: 6000, Exponent: 2.3, MaxDegree: 80, Seed: 42,
	})
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// benchAggVariants runs src sequentially, then on the parallel path at
// each worker count, in the aggregation strategy the planner selects.
func benchAggVariants(b *testing.B, src string, wantMode AggMode) {
	g := partialBenchGraph(b)
	q := mustParse(b, src)
	if got := QueryAggMode(q); got != wantMode {
		b.Fatalf("QueryAggMode(%q) = %v, want %v", src, got, wantMode)
	}
	run := func(ex *Executor) func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ex.Execute(q); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("seq", run(&Executor{G: g, Workers: 1}))
	for _, workers := range []int{2, 4} {
		b.Run(fmt.Sprintf("%v/w%d", wantMode, workers),
			run(&Executor{G: g, Workers: workers}))
	}
}

// BenchmarkPartialAggCount: grouped COUNT over a skewed social graph —
// the canonical order-insensitive shape.
func BenchmarkPartialAggCount(b *testing.B) {
	benchAggVariants(b, `MATCH (a:User)-[:FOLLOWS]->(b:User) RETURN a AS u, COUNT(b) AS n`, AggModePartial)
}

// BenchmarkPartialAggMinMax: MIN/MAX over vertex properties, grouped.
func BenchmarkPartialAggMinMax(b *testing.B) {
	benchAggVariants(b, `MATCH (a:User)-[:FOLLOWS]->(b:User) RETURN a AS u, MIN(ID(b)) AS lo, MAX(ID(b)) AS hi`, AggModePartial)
}

// BenchmarkPartialAggSumInt: SUM over a provably-integer expression
// (path length) on variable-length matches.
func BenchmarkPartialAggSumInt(b *testing.B) {
	benchAggVariants(b, `MATCH (a:User)-[r*1..2]->(b:User) RETURN a AS u, SUM(LENGTH(r)) AS hops`, AggModePartial)
}

// BenchmarkPartialAggFloatStaysBuffered: the AVG control — an
// order-sensitive accumulator never selects the partial mode, so its
// parallel variants run buffered.
func BenchmarkPartialAggFloatStaysBuffered(b *testing.B) {
	benchAggVariants(b, `MATCH (a:User)-[:FOLLOWS]->(b:User) RETURN a AS u, AVG(ID(b)) AS avg`, AggModeBuffered)
}
