package exec

import (
	"context"
	"math"
	"testing"
	"time"

	"kaskade/internal/graph"
)

// partialAggQueries are aggregate shapes whose accumulators are all
// order-insensitive, so the planner must select AggModePartial for
// them: COUNT/COUNT(*), MIN/MAX over arbitrary comparables, and SUM
// over provably-integer expressions.
var partialAggQueries = []string{
	`MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN j.name AS name, COUNT(f) AS nfiles`,
	`MATCH ()-[r]->() RETURN COUNT(*) AS n`,
	`MATCH (j:Job) RETURN MIN(j.CPU) AS lo, MAX(j.CPU) AS hi`,
	`MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN j.name AS name, MIN(f.name) AS first, COUNT(*) AS n`,
	`MATCH (a:Job)-[r*1..3]->(v) RETURN a, SUM(LENGTH(r)) AS hops, COUNT(*) AS n`,
	`MATCH (j:Job) RETURN MAX(ID(j)) AS maxid, SUM(ID(j)) AS sumid`,
	`MATCH (j:Job) WHERE j.CPU > 1000 RETURN COUNT(*) AS n, MIN(j.CPU) AS lo`,
	`MATCH (j:Job) RETURN LABEL(j) AS kind, SUM(2*ID(j) + 1) AS s, MAX(j.name) AS last`,
}

// TestQueryAggModeSelection pins the plan-time strategy choice — in
// particular that float SUM and AVG (any accumulator whose fold order
// is observable) never select the partial mode.
func TestQueryAggModeSelection(t *testing.T) {
	cases := []struct {
		src  string
		want AggMode
	}{
		{`MATCH (j:Job) RETURN j.name AS name`, AggModeNone},
		{`MATCH (j:Job) RETURN COUNT(*) AS n`, AggModePartial},
		{`MATCH (j:Job) RETURN MIN(j.CPU) AS lo, MAX(j.name) AS hi`, AggModePartial},
		{`MATCH (a:Job)-[r*1..2]->(b) RETURN SUM(LENGTH(r)) AS s`, AggModePartial},
		{`MATCH (j:Job) RETURN SUM(ID(j) + 1) AS s`, AggModePartial},
		// SUM over a property is not provably integer: buffered.
		{`MATCH (j:Job) RETURN SUM(j.CPU) AS s`, AggModeBuffered},
		// AVG accumulates in float64: always buffered.
		{`MATCH (j:Job) RETURN AVG(j.CPU) AS a`, AggModeBuffered},
		{`MATCH (j:Job) RETURN j.name AS name, AVG(ID(j)) AS a`, AggModeBuffered},
		// A float literal anywhere in SUM's argument: buffered.
		{`MATCH (j:Job) RETURN SUM(ID(j) + 0.5) AS s`, AggModeBuffered},
		// Division can promote to float even on integers: buffered.
		{`MATCH (j:Job) RETURN SUM(ID(j) / 2) AS s`, AggModeBuffered},
		// One order-sensitive aggregate poisons the whole query.
		{`MATCH (j:Job) RETURN COUNT(*) AS n, AVG(j.CPU) AS a`, AggModeBuffered},
		// The innermost MATCH decides: its COUNT is partial even under a
		// SELECT whose own (blocking) aggregation is an AVG.
		{`SELECT AVG(n) AS a FROM (MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN j AS job, COUNT(f) AS n) GROUP BY a`, AggModePartial},
		{`SELECT name FROM (MATCH (j:Job) RETURN j.name AS name, SUM(j.CPU) AS s)`, AggModeBuffered},
	}
	for _, tc := range cases {
		if got := QueryAggMode(mustParse(t, tc.src)); got != tc.want {
			t.Errorf("QueryAggMode(%q) = %v, want %v", tc.src, got, tc.want)
		}
	}
}

// TestPartialAggSuiteSelectsPartial guards the suite itself: every
// query in partialAggQueries must actually exercise the partial mode.
func TestPartialAggSuiteSelectsPartial(t *testing.T) {
	for _, src := range partialAggQueries {
		if got := QueryAggMode(mustParse(t, src)); got != AggModePartial {
			t.Errorf("QueryAggMode(%q) = %v, want partial", src, got)
		}
	}
}

// TestPartialAggMatchesBufferedOnLineage: for every partial-mode
// shape, execution at every worker count must agree byte for byte
// (rows, group order, values) with the reference evaluator's sequential
// buffered fold, streamed or buffered.
func TestPartialAggMatchesBufferedOnLineage(t *testing.T) {
	g, _ := lineage(t)
	for _, src := range partialAggQueries {
		ref := oracleRun(t, g, src)
		for _, workers := range []int{1, 2, 4, 8, -1} {
			assertSameResult(t, src, ref, runWorkers(t, g, src, workers), workers)
		}
		// The streaming cursor consumes the same partial-merge core.
		for _, workers := range []int{1, 4} {
			streamed, err := streamWorkers(t, g, src, workers)
			if err != nil {
				t.Fatalf("stream(%q, workers=%d): %v", src, workers, err)
			}
			assertSameResult(t, src, ref, streamed, workers)
		}
	}
}

// partialDatasetQueries are partial-mode shapes per synthetic dataset
// (schema-appropriate), run on randomized graphs.
var partialDatasetQueries = map[string][]string{
	"prov": {
		`MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN j.pipelineName AS p, COUNT(f) AS n, MAX(f.size) AS biggest`,
		`MATCH (v) RETURN LABEL(v) AS kind, COUNT(*) AS n, MIN(ID(v)) AS first`,
		`MATCH (j:Job)-[r*1..2]->(v) RETURN j, SUM(LENGTH(r)) AS hops`,
	},
	"dblp": {
		`MATCH (p:Paper)-[:PUBLISHED_IN]->(v:Venue) RETURN v, COUNT(p) AS papers, MIN(p.year) AS oldest`,
		`MATCH (a:Author)-[r*2..2]->(b:Author) RETURN COUNT(r) AS n`,
	},
	"roadnet": {
		`MATCH (a)-[r*1..2]->(b) RETURN COUNT(r) AS n, MAX(LENGTH(r)) AS longest`,
	},
	"soc": {
		`MATCH (a:User)-[:FOLLOWS]->(b:User) RETURN a, COUNT(b) AS out, MAX(ID(b)) AS hub`,
		`MATCH (a)-[r*1..2]->(b) RETURN SUM(LENGTH(r)) AS hops, COUNT(*) AS n`,
	},
}

// TestPartialAggMatchesBufferedOnDatagen repeats the check on
// randomized skewed, cyclic, and grid-shaped data.
func TestPartialAggMatchesBufferedOnDatagen(t *testing.T) {
	for _, seed := range []int64{5, 23} {
		graphs := datagenGraphs(t, seed)
		for name, g := range graphs {
			for _, src := range partialDatasetQueries[name] {
				if got := QueryAggMode(mustParse(t, src)); got != AggModePartial {
					t.Fatalf("%s query %q selects %v, want partial", name, src, got)
				}
				assertMatchesOracle(t, g, src)
			}
		}
	}
}

// TestPartialAggRowLimitShadowsLaterEvalError is the partial-mode
// counterpart of TestParallelRowLimitShadowsLaterEvalError: the limit
// gate must trip at the exact global yield position — before the
// aggregate-argument evaluation the sequential path never reaches —
// even though the chunk only ships an event count, not per-yield
// entries.
func TestPartialAggRowLimitShadowsLaterEvalError(t *testing.T) {
	g := graph.NewGraph(nil)
	for i := 0; i < 5; i++ {
		j := g.MustAddVertex("Job", nil)
		var v any = "s"
		if i == 4 {
			v = int64(7) // 5th row: LENGTH(int64) is an eval error
		}
		f := g.MustAddVertex("File", graph.Properties{"v": v})
		g.MustAddEdge(j, f, "WRITES_TO", nil)
	}
	src := `MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN SUM(LENGTH(f.v)) AS s`
	if got := QueryAggMode(mustParse(t, src)); got != AggModePartial {
		t.Fatalf("mode = %v, want partial", got)
	}
	q := mustParse(t, src)
	for _, workers := range []int{1, 2, 8, -1} {
		// Limit before the bad row: both paths must say ErrRowLimit.
		ex := &Executor{G: g, MaxRows: 4, Workers: workers}
		if _, err := ex.Execute(q); err != ErrRowLimit {
			t.Errorf("workers=%d MaxRows=4: got %v, want ErrRowLimit", workers, err)
		}
		// No limit: both paths must surface the evaluation error.
		ex = &Executor{G: g, Workers: workers}
		if _, err := ex.Execute(q); err == nil || err == ErrRowLimit {
			t.Errorf("workers=%d no limit: got %v, want eval error", workers, err)
		}
	}
}

// TestPartialAggEmptyMatch: zero-row aggregation still yields the
// single conventional row (COUNT 0, MIN nil) through the partial merge.
func TestPartialAggEmptyMatch(t *testing.T) {
	g, _ := lineage(t)
	src := `MATCH (j:Job) WHERE j.CPU > 100000 RETURN COUNT(*) AS n, MIN(j.CPU) AS lo`
	for _, workers := range []int{1, 4} {
		res := runWorkers(t, g, src, workers)
		if len(res.Rows) != 1 {
			t.Fatalf("workers=%d: %d rows, want 1", workers, len(res.Rows))
		}
		if res.Rows[0][0] != int64(0) || res.Rows[0][1] != nil {
			t.Errorf("workers=%d: row = %v, want [0 <nil>]", workers, res.Rows[0])
		}
	}
}

// TestPartialAggMinMaxIgnoresNaN: a NaN property landing at a chunk
// boundary must not poison MIN/MAX — compareValues ties NaN with
// everything, so a chunk-local fold that kept a first-seen NaN would
// discard that chunk's true extremum at merge time. MIN/MAX ignore NaN
// (like nil), keeping the fold associative and all paths identical.
func TestPartialAggMinMaxIgnoresNaN(t *testing.T) {
	g := graph.NewGraph(nil)
	const n = 200
	for i := 0; i < n; i++ {
		x := float64(i + 10)
		switch i {
		case 148:
			x = math.NaN() // likely a chunk-start position at workers=4
		case 149:
			x = 100000 // the true max, right behind the NaN
		}
		g.MustAddVertex("V", graph.Properties{"x": x})
	}
	src := `MATCH (a:V) RETURN MAX(a.x) AS hi, MIN(a.x) AS lo`
	if got := QueryAggMode(mustParse(t, src)); got != AggModePartial {
		t.Fatalf("mode = %v, want partial", got)
	}
	ref := oracleRun(t, g, src)
	if ref.Rows[0][0] != float64(100000) || ref.Rows[0][1] != float64(10) {
		t.Fatalf("reference row = %v, want [100000 10]", ref.Rows[0])
	}
	for _, workers := range []int{1, 2, 4, 8, -1} {
		assertSameResult(t, src, ref, runWorkers(t, g, src, workers), workers)
	}
}

// explosiveGraph is denseGraph without the cheap detached prefix: the
// very first candidate vertex sits inside the dense component, so a
// merge that released a chunk's rows only at chunk completion could not
// produce a first row within any reasonable time.
func explosiveGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g := graph.NewGraph(nil)
	const n = 24
	ids := make([]graph.VertexID, n)
	for i := range ids {
		ids[i] = g.MustAddVertex("V", graph.Properties{"i": int64(i)})
	}
	for i := 0; i < n; i++ {
		for d := 1; d <= 6; d++ {
			g.MustAddEdge(ids[i], ids[(i+d)%n], "E", nil)
		}
	}
	return g
}

// TestStreamFirstRowBeforePartitionCompletes pins eager prefix
// streaming under workers>1: chunk 0's rows must release as they are
// produced, not when the chunk completes. Chunk 0 here is an explosive
// match whose full enumeration is combinatorially out of reach, so the
// first row arriving at all proves it arrived while the partition was
// still running.
func TestStreamFirstRowBeforePartitionCompletes(t *testing.T) {
	g := explosiveGraph(t)
	q := mustParse(t, `MATCH (a:V)-[r*1..12]->(b:V) RETURN a, b`)
	for _, workers := range []int{2, 4} {
		ex := &Executor{G: g, Workers: workers}
		rows, err := ex.Stream(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		if !rows.Next() {
			t.Fatalf("workers=%d: no first row: %v", workers, rows.Err())
		}
		if elapsed := time.Since(start); elapsed > 30*time.Second {
			t.Fatalf("workers=%d: first row took %s", workers, elapsed)
		}
		// Drain a few more to show the prefix keeps flowing, then abort
		// the still-running partition.
		for i := 0; i < 10 && rows.Next(); i++ {
		}
		if err := rows.Close(); err != nil {
			t.Errorf("workers=%d: Close = %v", workers, err)
		}
	}
}
