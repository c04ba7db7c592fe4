package exec

import (
	"fmt"
	"strings"
	"testing"

	"kaskade/internal/gql"
	"kaskade/internal/graph"
)

// allocsPerYield runs src warm and returns the allocations of one whole
// execution divided by units, the matches or rows it processes.
func allocsPerYield(t *testing.T, ex *Executor, src string, units int64) float64 {
	t.Helper()
	q := mustParse(t, src)
	if _, err := ex.Execute(q); err != nil { // warm: freeze, columns
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := ex.Execute(q); err != nil {
			t.Fatal(err)
		}
	})
	return allocs / float64(units)
}

// TestUnreferencedVarAllocations guards the matcher's binding policy:
// a pattern variable no expression reads and that occurs only once is
// never boxed into a slot, so a COUNT(*) scan allocates nothing per
// match — the execution's fixed costs only.
func TestUnreferencedVarAllocations(t *testing.T) {
	g := benchGraph(t)
	ex := &Executor{G: g}
	for _, src := range []string{
		`MATCH (a:Job)-[r*1..3]->(v) RETURN COUNT(*) AS n`,
		`MATCH ()-[r]->() RETURN COUNT(*) AS n`,
		`MATCH (v) RETURN COUNT(*) AS n`,
	} {
		res, err := ex.Execute(mustParse(t, src))
		if err != nil {
			t.Fatal(err)
		}
		yields := res.Rows[0][0].(int64)
		if yields < 1000 {
			t.Fatalf("%s: bench graph too small for a meaningful guard: %d yields", src, yields)
		}
		perYield := allocsPerYield(t, ex, src, yields)
		t.Logf("%s: %.3f objects/yield", src, perYield)
		if perYield > 0.1 {
			t.Errorf("%s allocates %.3f objects/yield, want <= 0.1", src, perYield)
		}
	}
}

// TestSelectTailAllocations guards the SELECT tail's per-row cost: a
// grouped SELECT over a var-length MATCH pays for the subquery's row
// (its boxed binding and Row) and the group key, not for a per-row
// environment.
func TestSelectTailAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates the group key's fmt allocations (it randomly drains fmt's sync.Pool)")
	}
	g := benchGraph(t)
	ex := &Executor{G: g}
	sub, err := ex.Execute(mustParse(t, `MATCH (a:Job)-[r*1..3]->(b) RETURN a AS A, b AS B`))
	if err != nil {
		t.Fatal(err)
	}
	rows := int64(len(sub.Rows))
	if rows < 5000 {
		t.Fatalf("bench graph too small for a meaningful guard: %d subquery rows", rows)
	}
	src := `SELECT A, COUNT(B) AS n FROM (
		MATCH (a:Job)-[r*1..3]->(b) RETURN a AS A, b AS B
	) GROUP BY A`
	perRow := allocsPerYield(t, ex, src, rows)
	t.Logf("%.2f objects/subquery row", perRow)
	if perRow > 4.5 {
		t.Errorf("grouped SELECT allocates %.2f objects/subquery row, want <= 4.5", perRow)
	}
}

// bindingGraph is a small untyped-schema graph with the shapes the
// binding policy must survive: 2-cycles, a self-loop, parallel edges,
// two vertex and two edge types, and int/float properties on both.
func bindingGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g := graph.NewGraph(nil)
	var vs []graph.VertexID
	for i := range 6 {
		typ := "A"
		if i%2 == 1 {
			typ = "B"
		}
		vs = append(vs, g.MustAddVertex(typ, graph.Properties{"w": int64(i % 3), "x": float64(i) / 3}))
	}
	for i, e := range []struct {
		from, to int
		typ      string
	}{
		{0, 1, "E"}, {1, 0, "E"}, {1, 2, "E"}, {2, 3, "F"}, {3, 1, "E"},
		{3, 3, "E"}, {2, 4, "E"}, {2, 4, "E"}, {4, 5, "F"}, {5, 2, "E"},
		{5, 0, "F"}, {0, 2, "E"},
	} {
		g.MustAddEdge(vs[e.from], vs[e.to], e.typ, graph.Properties{"w": int64(i % 4), "x": float64(i) / 7})
	}
	return g
}

// TestBindingPolicyOracle checks the matcher's binding policy — only
// variables an expression reads or that occur more than once get a slot
// — and the positional relational tail against the reference
// evaluator, which binds every variable into a map, at workers 1 and 4.
func TestBindingPolicyOracle(t *testing.T) {
	g := bindingGraph(t)
	for _, src := range []string{
		// Joins across patterns: y is read by nothing but the join.
		`MATCH (x)-[:E]->(y) (y)-[:E]->(z) RETURN COUNT(*) AS n`,
		`MATCH (x:A)-[e1]->(y) (y)-[e2]->(z:B) RETURN ID(x) AS x, ID(z) AS z`,
		// Cycles within one pattern, the repeated variable unread.
		`MATCH (a)-[:E]->(b)-[:E]->(a) RETURN ID(b) AS b, COUNT(*) AS n`,
		`MATCH (a)-[r*1..3]->(a) RETURN COUNT(*) AS n`,
		`MATCH (a)-[r*1..4]->(b)-[e]->(a) RETURN ID(a) AS a, COUNT(e) AS n`,
		// A repeated edge variable must name the same edge.
		`MATCH (a)-[e]->(b) (c)-[e]->(d) RETURN ID(a) AS a, ID(d) AS d`,
		// Variables read only in WHERE.
		`MATCH (a)-[e:E]->(b) WHERE e.w > 1 AND b.w < 2 RETURN COUNT(*) AS n`,
		`MATCH (a)-[r*1..3]->(b) WHERE LENGTH(r) = 2 RETURN ID(a) AS a, COUNT(*) AS n`,
		// Typed nodes and edges nothing references.
		`MATCH (a:A)-[r:E]->(b:B) RETURN COUNT(*) AS n`,
		`MATCH (:A)-[:E]->(:B)-[:F]->(c) RETURN ID(c) AS c`,
		`MATCH (a:B)-[r*0..2]->(b:A) RETURN COUNT(*) AS n`,
		// AVG (buffered mode): the representative row feeds the key
		// item and a non-aggregate operand of an aggregate item.
		`MATCH (a)-[e]->(b) RETURN a, AVG(e.x) + a.w AS s, b.w AS bw`,
		`MATCH (a)-[r*1..2]->(b) RETURN ID(a) AS a, AVG(b.x) AS m, COUNT(r) AS n`,
		`MATCH (a)-[e]->(b) RETURN AVG(e.x) AS m, COUNT(*) + 1 AS n`,
		// Duplicate column names in a SELECT subquery: the last column
		// wins for projection, GROUP BY and ORDER BY — in the subquery
		// and in the SELECT's own output.
		`SELECT x FROM (MATCH (a) RETURN ID(a) AS x, a.w AS x) ORDER BY x DESC`,
		`SELECT x, COUNT(*) AS n FROM (
			MATCH (a)-[e]->(b) RETURN a.w AS x, b.w AS x
		) GROUP BY x ORDER BY x`,
		`SELECT x, y AS x FROM (
			MATCH (a)-[e]->(b) RETURN ID(a) AS x, e.w AS y
		) ORDER BY x`,
		`SELECT x, AVG(y) AS m FROM (
			MATCH (a)-[e]->(b) RETURN ID(b) AS x, e.x AS y, a.w AS x
		) GROUP BY x`,
	} {
		assertMatchesOracle(t, g, src)
	}

	// The prefilter drops first-node candidates before any binding;
	// the first node is read only by the WHERE conjunct it pre-applies.
	dg := declaredLineage(t)
	for _, src := range []string{
		`MATCH (j:Job)-[:WRITES_TO]->(f:File) WHERE j.CPU >= 20 RETURN COUNT(*) AS n`,
		`MATCH (j:Job)-[r*1..3]->(v) WHERE j.CPU > 10 RETURN COUNT(*) AS n`,
		`MATCH (j:Job)-[:WRITES_TO]->(f:File) WHERE j.CPU < 30 AND f.name <> 'f2' RETURN f.name AS f`,
	} {
		if columnPrefilter(mustParse(t, src).(*gql.MatchQuery), dg.Freeze()) == nil {
			t.Fatalf("%s: prefilter does not engage", src)
		}
		assertMatchesOracle(t, dg, src)
	}

	// Last-wins, pinned by hand: the duplicated x is b.w.
	dup := runWorkers(t, g, `SELECT x FROM (MATCH (a)-[e]->(b) RETURN a.w AS x, b.w AS x)`, 1)
	last := runWorkers(t, g, `MATCH (a)-[e]->(b) RETURN b.w AS x`, 1)
	assertSameResult(t, "duplicate column", last, dup, 1)
}

// TestBindingErrorsOracle pins the errors the multiply-occurring
// variables raise: they keep their slots, so the engine fails exactly
// as the reference evaluator does, at workers 1 and 4.
func TestBindingErrorsOracle(t *testing.T) {
	g := bindingGraph(t)
	for _, tc := range []struct{ src, want string }{
		// A name used as an edge and then as a node.
		{`MATCH (x)-[a]->(y) (a)-[:E]->(z) RETURN COUNT(*) AS n`, "variable a is not a vertex"},
		{`MATCH (x)-[a]->(a) RETURN COUNT(*) AS n`, "variable a is not a vertex"},
		// A var-length variable used twice.
		{`MATCH (a)-[r*1..2]->(b) (b)-[r*1..2]->(c) RETURN COUNT(*) AS n`, "variable-length variable r bound twice"},
		{`MATCH (a)-[r*1..2]->(b)-[r*0..1]->(c) RETURN ID(c) AS c`, "variable-length variable r bound twice"},
	} {
		_, refErr := oracleQuery(g, mustParse(t, tc.src))
		if refErr == nil || !strings.Contains(refErr.Error(), tc.want) {
			t.Fatalf("%s: reference error %v, want %q", tc.src, refErr, tc.want)
		}
		for _, workers := range []int{1, 4} {
			_, err := RunParallel(g, tc.src, workers)
			if err == nil || err.Error() != refErr.Error() {
				t.Errorf("%s workers=%d: error %v, want %v", tc.src, workers, err, refErr)
			}
		}
	}
	// A name used as a node and then as an edge: the edge step never
	// matches a vertex binding, so the match is silently empty.
	assertMatchesOracle(t, g, `MATCH (a)-[a]->(b) RETURN COUNT(*) AS n`)
}

// TestInt64ComparisonsAbove2To53 pins exact int64 comparison: 2^53 and
// 2^53+1 are distinct int64s but the same float64, so promoting both
// sides to float64 made them tie in WHERE, MIN/MAX and ORDER BY. The
// declared property n runs the WHERE through the column prefilter; the
// undeclared m reads the property maps.
func TestInt64ComparisonsAbove2To53(t *testing.T) {
	const lo, hi = int64(1) << 53, int64(1)<<53 + 1
	s := graph.MustSchema([]string{"Job"}, nil)
	if err := s.DeclareProperty("Job", "n", graph.PropInt); err != nil {
		t.Fatal(err)
	}
	g := graph.NewGraph(s)
	// hi first: a tie keeps insertion order, so ORDER BY and MIN go
	// wrong when the two compare equal.
	for _, v := range []int64{hi, lo} {
		g.MustAddVertex("Job", graph.Properties{"n": v, "m": v})
	}
	for _, p := range []string{"n", "m"} {
		for _, tc := range []struct {
			src  string
			want string
		}{
			{`MATCH (j:Job) WHERE j.P = 9007199254740993 RETURN j.P AS v`, "[[9007199254740993]]"},
			{`MATCH (j:Job) WHERE j.P < 9007199254740993 RETURN j.P AS v`, "[[9007199254740992]]"},
			{`MATCH (j:Job) WHERE 9007199254740992 < j.P RETURN j.P AS v`, "[[9007199254740993]]"},
			{`MATCH (j:Job) WHERE j.P <> 9007199254740992 RETURN j.P AS v`, "[[9007199254740993]]"},
			// Mixed int/float still promotes: both equal 2^53 as float64.
			{`MATCH (j:Job) WHERE j.P = 9007199254740992.0 RETURN j.P AS v`, "[[9007199254740993] [9007199254740992]]"},
			{`MATCH (j:Job) RETURN MIN(j.P) AS lo, MAX(j.P) AS hi`, "[[9007199254740992 9007199254740993]]"},
			{`SELECT v FROM (MATCH (j:Job) RETURN j.P AS v) ORDER BY v`, "[[9007199254740992] [9007199254740993]]"},
		} {
			src := strings.ReplaceAll(tc.src, ".P", "."+p)
			if p == "n" && strings.HasPrefix(src, "MATCH (j:Job) WHERE") {
				if columnPrefilter(mustParse(t, src).(*gql.MatchQuery), g.Freeze()) == nil {
					t.Fatalf("%s: prefilter does not engage", src)
				}
			}
			for _, workers := range []int{1, 4} {
				if got := fmt.Sprint(runWorkers(t, g, src, workers).Rows); got != tc.want {
					t.Errorf("%s workers=%d = %s, want %s", src, workers, got, tc.want)
				}
			}
		}
	}
}
