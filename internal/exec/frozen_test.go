package exec

import (
	"strings"
	"testing"

	"kaskade/internal/datagen"
	"kaskade/internal/gql"
	"kaskade/internal/graph"
)

// TestFrozenMatchesAppendOnLineage is the engine-vs-reference
// equivalence suite over every exec_test query shape: the frozen CSR
// engine must produce byte-identical results (rows, order, group order,
// float bit patterns) to the reference evaluator, which walks the
// graph's append-order adjacency (oracle_test.go), sequential and
// parallel.
func TestFrozenMatchesAppendOnLineage(t *testing.T) {
	g, _ := lineage(t)
	for _, src := range equivalenceQueries {
		assertMatchesOracle(t, g, src)
	}
}

// TestFrozenMatchesAppendOnDatagen runs the same check over the
// randomized synthetic datasets (skewed, cyclic, and grid-shaped
// graphs).
func TestFrozenMatchesAppendOnDatagen(t *testing.T) {
	for _, seed := range []int64{3, 11} {
		graphs := datagenGraphs(t, seed)
		for name, g := range graphs {
			for _, src := range datasetQueries[name] {
				assertMatchesOracle(t, g, src)
			}
		}
	}
}

// TestFrozenErrorsMatchAppend pins error behavior: the row limit trips
// at every worker count, and queries the reference evaluator rejects
// fail on the engine too.
func TestFrozenErrorsMatchAppend(t *testing.T) {
	g, _ := lineage(t)
	q := mustParse(t, `MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN j, f`)
	for _, workers := range []int{1, 4} {
		ex := &Executor{G: g, MaxRows: 2, Workers: workers}
		if _, err := ex.Execute(q); err != ErrRowLimit {
			t.Errorf("workers=%d: got %v, want ErrRowLimit", workers, err)
		}
	}
	for _, src := range []string{
		`MATCH (j:Job) RETURN unknown_var`,
		`MATCH (j:Job) WHERE j.CPU RETURN j`,
	} {
		if _, err := oracleQuery(g, mustParse(t, src)); err == nil {
			t.Errorf("query %q: reference evaluator accepted it", src)
		}
		for _, workers := range []int{1, 4} {
			ex := &Executor{G: g, Workers: workers}
			if _, err := ex.Execute(mustParse(t, src)); err == nil {
				t.Errorf("query %q workers=%d: want error", src, workers)
			}
		}
	}
}

// declaredSchema builds the lineage schema with Job.CPU declared as an
// integer property.
func declaredSchema(t *testing.T) *graph.Schema {
	t.Helper()
	s, err := graph.NewSchema(
		[]string{"Job", "File"},
		[]graph.EdgeType{
			{From: "Job", To: "File", Name: "WRITES_TO"},
			{From: "File", To: "Job", Name: "IS_READ_BY"},
		})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.DeclareProperty("Job", "CPU", graph.PropInt); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestAggModeSchemaDeclaredProperty pins the ROADMAP item: SUM over a
// property is unprovable without type information and buffers, but a
// schema declaration (Job.CPU is PropInt) licenses the
// partial-aggregation path — and only for matching variables and
// properties.
func TestAggModeSchemaDeclaredProperty(t *testing.T) {
	sumCPU := mustParse(t, `MATCH (j:Job) RETURN SUM(j.CPU) AS total`)
	// Without a schema, property SUM is unprovable: buffered.
	if got := QueryAggModeFor(sumCPU, nil); got != AggModeBuffered {
		t.Errorf("no schema: mode = %v, want buffered", got)
	}
	s := declaredSchema(t)
	cases := []struct {
		src  string
		want AggMode
	}{
		// The declaration proves integer SUM: partial.
		{`MATCH (j:Job) RETURN SUM(j.CPU) AS total`, AggModePartial},
		// Composed integer arithmetic over the declared property.
		{`MATCH (j:Job) RETURN SUM(j.CPU * 2 + 1) AS total`, AggModePartial},
		// Undeclared property on the same variable: buffered.
		{`MATCH (j:Job) RETURN SUM(j.mem) AS total`, AggModeBuffered},
		// Untyped variable (no label in the pattern): buffered.
		{`MATCH (j) RETURN SUM(j.CPU) AS total`, AggModeBuffered},
		// AVG stays buffered regardless of declarations.
		{`MATCH (j:Job) RETURN AVG(j.CPU) AS a`, AggModeBuffered},
	}
	for _, tc := range cases {
		if got := QueryAggModeFor(mustParse(t, tc.src), s); got != tc.want {
			t.Errorf("%q: mode = %v, want %v", tc.src, got, tc.want)
		}
	}
	// A float declaration must not license partial.
	if err := s.DeclareProperty("Job", "load", graph.PropFloat); err != nil {
		t.Fatal(err)
	}
	if got := QueryAggModeFor(mustParse(t, `MATCH (j:Job) RETURN SUM(j.load) AS l`), s); got != AggModeBuffered {
		t.Errorf("float-declared property: mode = %v, want buffered", got)
	}
}

// TestDeclaredPropertyPartialEquivalence proves the schema-widened
// partial path byte-identical to the reference evaluator on real data.
func TestDeclaredPropertyPartialEquivalence(t *testing.T) {
	s := declaredSchema(t)
	g := graph.NewGraph(s)
	for i := 0; i < 40; i++ {
		j := g.MustAddVertex("Job", graph.Properties{"CPU": int64(i * 7 % 13)})
		f := g.MustAddVertex("File", nil)
		g.MustAddEdge(j, f, "WRITES_TO", nil)
		if i > 0 {
			g.MustAddEdge(f, j-2, "IS_READ_BY", nil)
		}
	}
	src := `MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN SUM(j.CPU) AS total`
	q := mustParse(t, src)
	if got := QueryAggModeFor(q, g.Schema()); got != AggModePartial {
		t.Fatalf("mode = %v, want partial", got)
	}
	ref := oracleRun(t, g, src)
	for _, workers := range []int{1, 2, 4} {
		assertSameResult(t, src, ref, runWorkers(t, g, src, workers), workers)
	}
}

// misdeclaredGraph holds Job.CPU values that contradict the schema's
// PropInt declaration (they are float64).
func misdeclaredGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.NewGraph(declaredSchema(t))
	for i := 0; i < 30; i++ {
		j := g.MustAddVertex("Job", graph.Properties{"CPU": float64(i) / 3}) // lies: declared PropInt
		f := g.MustAddVertex("File", nil)
		g.MustAddEdge(j, f, "WRITES_TO", nil)
	}
	return g
}

// TestMisdeclaredPropertyFailsLoudly pins the lying-schema behavior: a
// property declared PropInt whose stored values are float64 must fail
// loudly, not silently produce wrong bits. The columnar freeze rejects
// the lying value (FreezeChecked validates every stored value against
// its declaration), even though the planner trusts the declaration.
func TestMisdeclaredPropertyFailsLoudly(t *testing.T) {
	g := misdeclaredGraph(t)
	if _, err := g.FreezeChecked(); err == nil ||
		!strings.Contains(err.Error(), "declared int, holds float64") {
		t.Fatalf("FreezeChecked err = %v, want declared-kind violation", err)
	}
	q := mustParse(t, `MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN SUM(j.CPU) AS total`)
	if got := QueryAggModeFor(q, g.Schema()); got != AggModePartial {
		t.Fatalf("mode = %v, want partial (declaration trusted at plan time)", got)
	}
}

// TestMisdeclaredPropertyQueryReturnsError: a query over an unfrozen
// graph whose data contradicts a declaration returns the declared-kind
// violation as its error — the executor freezes once, on the caller's
// goroutine, before any worker starts — instead of panicking inside a
// worker goroutine.
func TestMisdeclaredPropertyQueryReturnsError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		g := misdeclaredGraph(t)
		_, err := RunParallel(g, `MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN j.name AS n`, workers)
		if err == nil || !strings.Contains(err.Error(), "declared int, holds float64") {
			t.Errorf("workers=%d: err = %v, want declared-kind violation", workers, err)
		}
	}
}

// TestPartialSumMergeRejectsFloat pins the partial-SUM merge backstop:
// a chunk whose SUM folded float64 values under a plan that proved the
// argument integer must fail the merge loudly rather than fold floats
// in chunk order (worker-count-dependent bits).
func TestPartialSumMergeRejectsFloat(t *testing.T) {
	total, chunk := &sumAcc{}, &sumAcc{}
	if err := total.add(int64(2), false); err != nil {
		t.Fatal(err)
	}
	if err := chunk.add(1.5, false); err != nil {
		t.Fatal(err)
	}
	if err := total.merge(chunk); err == nil || !strings.Contains(err.Error(), "declared integer") {
		t.Fatalf("merge err = %v, want loud mis-declaration error", err)
	}
}

// BenchmarkFrozenPatternMatch prices the frozen CSR matcher on the
// 2-hop typed lineage join: typed adjacency means no per-edge type
// filter and no Edge-record loads.
func BenchmarkFrozenPatternMatch(b *testing.B) {
	g := benchGraph(b)
	q := gql.MustParse(`MATCH (a:Job)-[:WRITES_TO]->(f:File)-[:IS_READ_BY]->(c:Job) RETURN a, c`)
	benchExecute(b, &Executor{G: g}, q)
}

// BenchmarkFrozenVarLength prices variable-length traversal (untyped
// steps over flat CSR rows).
func BenchmarkFrozenVarLength(b *testing.B) {
	g := benchGraph(b)
	q := gql.MustParse(`MATCH (a:Job)-[r*1..3]->(v) RETURN COUNT(r) AS n`)
	benchExecute(b, &Executor{G: g}, q)
}

// benchExecute times ex.Execute(q) on a warm (frozen) graph.
func benchExecute(b *testing.B, ex *Executor, q gql.Query) {
	ex.G.Freeze()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.Execute(q); err != nil {
			b.Fatal(err)
		}
	}
}

// benchGraph is a mid-size filtered-provenance-shaped graph for the
// frozen benchmarks.
func benchGraph(b testing.TB) *graph.Graph {
	b.Helper()
	g, err := datagen.Prov(datagen.ProvConfig{
		Jobs: 400, Files: 900, TasksPerJob: 2, Machines: 15, Users: 5,
		MaxReads: 15, Pipelines: 6, Seed: 42,
	})
	if err != nil {
		b.Fatal(err)
	}
	return g
}
