package views

import (
	"testing"

	"kaskade/internal/datagen"
	"kaskade/internal/graph"
)

// fig3 builds the input graph of the paper's Fig. 3(a): j1 writes f1,f2;
// f1 read by j2; f2 read by j3; j2 writes f3; j3 writes f4.
func fig3(t testing.TB) *graph.Graph {
	t.Helper()
	g := graph.NewGraph(graph.MustSchema(
		[]string{"Job", "File"},
		[]graph.EdgeType{
			{From: "Job", To: "File", Name: "WRITES_TO"},
			{From: "File", To: "Job", Name: "IS_READ_BY"},
		},
	))
	j1 := g.MustAddVertex("Job", graph.Properties{"name": "j1"})
	j2 := g.MustAddVertex("Job", graph.Properties{"name": "j2"})
	j3 := g.MustAddVertex("Job", graph.Properties{"name": "j3"})
	f1 := g.MustAddVertex("File", graph.Properties{"name": "f1"})
	f2 := g.MustAddVertex("File", graph.Properties{"name": "f2"})
	f3 := g.MustAddVertex("File", graph.Properties{"name": "f3"})
	f4 := g.MustAddVertex("File", graph.Properties{"name": "f4"})
	g.MustAddEdge(j1, f1, "WRITES_TO", graph.Properties{"ts": int64(1)})
	g.MustAddEdge(j1, f2, "WRITES_TO", graph.Properties{"ts": int64(2)})
	g.MustAddEdge(f1, j2, "IS_READ_BY", graph.Properties{"ts": int64(3)})
	g.MustAddEdge(f2, j3, "IS_READ_BY", graph.Properties{"ts": int64(4)})
	g.MustAddEdge(j2, f3, "WRITES_TO", graph.Properties{"ts": int64(5)})
	g.MustAddEdge(j3, f4, "WRITES_TO", graph.Properties{"ts": int64(6)})
	return g
}

func names(g *graph.Graph, ids []graph.VertexID) map[string]graph.VertexID {
	out := make(map[string]graph.VertexID)
	for _, id := range ids {
		out[g.Vertex(id).Prop("name").(string)] = id
	}
	return out
}

func TestJobToJobConnectorMatchesFig3c(t *testing.T) {
	g := fig3(t)
	v, err := KHopConnector{SrcType: "Job", DstType: "Job", K: 2}.Materialize(g)
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 3(c) left: jobs only, edges j1->j2 and j1->j3.
	if v.CountVerticesOfType("Job") != 3 || v.CountVerticesOfType("File") != 0 {
		t.Errorf("connector vertices: %d jobs, %d files", v.CountVerticesOfType("Job"), v.CountVerticesOfType("File"))
	}
	if v.NumEdges() != 2 {
		t.Fatalf("connector edges = %d, want 2", v.NumEdges())
	}
	byName := names(v, v.VerticesOfType("Job"))
	pairs := map[[2]graph.VertexID]int64{}
	v.EachEdge(func(e *graph.Edge) {
		pairs[[2]graph.VertexID{e.From, e.To}] = e.Prop("ts").(int64)
	})
	if ts := pairs[[2]graph.VertexID{byName["j1"], byName["j2"]}]; ts != 3 {
		t.Errorf("j1->j2 contracted ts = %d, want max(1,3)=3", ts)
	}
	if ts := pairs[[2]graph.VertexID{byName["j1"], byName["j3"]}]; ts != 4 {
		t.Errorf("j1->j3 contracted ts = %d, want max(2,4)=4", ts)
	}
}

func TestFileToFileConnectorMatchesFig3d(t *testing.T) {
	g := fig3(t)
	v, err := KHopConnector{SrcType: "File", DstType: "File", K: 2}.Materialize(g)
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 3(d): f1->f3 and f2->f4.
	if v.NumEdges() != 2 {
		t.Fatalf("file connector edges = %d, want 2", v.NumEdges())
	}
	byName := names(v, v.VerticesOfType("File"))
	found := map[[2]graph.VertexID]bool{}
	v.EachEdge(func(e *graph.Edge) { found[[2]graph.VertexID{e.From, e.To}] = true })
	if !found[[2]graph.VertexID{byName["f1"], byName["f3"]}] || !found[[2]graph.VertexID{byName["f2"], byName["f4"]}] {
		t.Errorf("file pairs = %v", found)
	}
}

func TestConnectorParallelEdgesCountPaths(t *testing.T) {
	// Two distinct 2-hop paths between the same pair must yield two
	// parallel connector edges (§V-A path-count semantics)...
	g := graph.NewGraph(nil)
	a := g.MustAddVertex("V", graph.Properties{"name": "a"})
	m1 := g.MustAddVertex("V", graph.Properties{"name": "m1"})
	m2 := g.MustAddVertex("V", graph.Properties{"name": "m2"})
	b := g.MustAddVertex("V", graph.Properties{"name": "b"})
	g.MustAddEdge(a, m1, "E", nil)
	g.MustAddEdge(a, m2, "E", nil)
	g.MustAddEdge(m1, b, "E", nil)
	g.MustAddEdge(m2, b, "E", nil)

	v, err := KHopConnector{K: 2}.Materialize(g)
	if err != nil {
		t.Fatal(err)
	}
	if v.NumEdges() != 2 {
		t.Errorf("parallel path edges = %d, want 2", v.NumEdges())
	}
	// ...unless DedupPairs collapses them.
	vd, err := KHopConnector{K: 2, DedupPairs: true}.Materialize(g)
	if err != nil {
		t.Fatal(err)
	}
	if vd.NumEdges() != 1 {
		t.Errorf("deduped edges = %d, want 1", vd.NumEdges())
	}
}

func TestConnectorEdgeTypeRestriction(t *testing.T) {
	g := fig3(t)
	// Restricting to WRITES_TO only: no job-file-job paths exist.
	v, err := KHopConnector{SrcType: "Job", DstType: "Job", K: 2, EdgeTypes: []string{"WRITES_TO"}}.Materialize(g)
	if err != nil {
		t.Fatal(err)
	}
	if v.NumEdges() != 0 {
		t.Errorf("restricted connector has %d edges, want 0", v.NumEdges())
	}
}

func TestConnectorValidation(t *testing.T) {
	g := fig3(t)
	if _, err := (KHopConnector{SrcType: "Job", DstType: "Job", K: 0}).Materialize(g); err == nil {
		t.Error("K=0 accepted")
	}
	if _, err := (KHopConnector{SrcType: "Nope", DstType: "Job", K: 2}).Materialize(g); err == nil {
		t.Error("unknown type accepted")
	}
}

func TestSameVertexTypeConnector(t *testing.T) {
	g := fig3(t)
	v, err := SameVertexTypeConnector{VType: "Job", MaxLen: 4}.Materialize(g)
	if err != nil {
		t.Fatal(err)
	}
	// Paths stop at the first Job: j1->j2 (via f1), j1->j3 (via f2),
	// same as the 2-hop connector on this graph.
	if v.NumEdges() != 2 {
		t.Errorf("same-vertex-type edges = %d, want 2", v.NumEdges())
	}
	v.EachEdge(func(e *graph.Edge) {
		if e.Prop("hops").(int64) != 2 {
			t.Errorf("hops = %v, want 2", e.Prop("hops"))
		}
	})
}

func TestSameEdgeTypeConnector(t *testing.T) {
	// Chain of TRANSFERS_TO task edges: t1->t2->t3.
	g := graph.NewGraph(nil)
	t1 := g.MustAddVertex("Task", nil)
	t2 := g.MustAddVertex("Task", nil)
	t3 := g.MustAddVertex("Task", nil)
	g.MustAddEdge(t1, t2, "TRANSFERS_TO", nil)
	g.MustAddEdge(t2, t3, "TRANSFERS_TO", nil)
	g.MustAddEdge(t1, t3, "OTHER", nil)

	v, err := SameEdgeTypeConnector{EType: "TRANSFERS_TO", MaxLen: 5}.Materialize(g)
	if err != nil {
		t.Fatal(err)
	}
	// Contracted paths: t1->t2, t2->t3, t1->t3 (2 hops). OTHER ignored.
	if v.NumEdges() != 3 {
		t.Errorf("same-edge-type edges = %d, want 3", v.NumEdges())
	}
}

func TestSourceToSinkConnector(t *testing.T) {
	// a -> b -> c, d isolated: source a, sink c (and d is both but has
	// no outgoing edges, so no paths start there).
	g := graph.NewGraph(nil)
	a := g.MustAddVertex("V", nil)
	b := g.MustAddVertex("V", nil)
	c := g.MustAddVertex("V", nil)
	g.MustAddVertex("V", nil)
	g.MustAddEdge(a, b, "E", nil)
	g.MustAddEdge(b, c, "E", nil)

	v, err := SourceToSinkConnector{MaxLen: 5}.Materialize(g)
	if err != nil {
		t.Fatal(err)
	}
	if v.NumEdges() != 1 {
		t.Fatalf("source-sink edges = %d, want 1 (a->c)", v.NumEdges())
	}
	var got *graph.Edge
	v.EachEdge(func(e *graph.Edge) { got = e })
	if got.Prop("hops").(int64) != 2 {
		t.Errorf("hops = %v", got.Prop("hops"))
	}
}

func TestVertexInclusionSummarizerOnProv(t *testing.T) {
	cfg := datagen.DefaultProvConfig()
	cfg.Jobs, cfg.Files, cfg.TasksPerJob = 100, 200, 10
	g, err := datagen.Prov(cfg)
	if err != nil {
		t.Fatal(err)
	}
	v, err := VertexInclusionSummarizer{Types: []string{"Job", "File"}}.Materialize(g)
	if err != nil {
		t.Fatal(err)
	}
	if v.NumVertices() != 300 {
		t.Errorf("summarized |V| = %d, want 300", v.NumVertices())
	}
	// Dramatic reduction: raw includes tasks etc.
	if v.NumEdges() >= g.NumEdges()/2 {
		t.Errorf("summarizer kept %d of %d edges; expected large reduction", v.NumEdges(), g.NumEdges())
	}
	// Only lineage edges survive.
	v.EachEdge(func(e *graph.Edge) {
		if e.Type != "WRITES_TO" && e.Type != "IS_READ_BY" {
			t.Fatalf("unexpected edge type %s", e.Type)
		}
	})
	// Properties preserved for downstream queries.
	if v.Vertex(v.VerticesOfType("Job")[0]).Prop("CPU") == nil {
		t.Error("summarizer lost vertex properties")
	}
}

func TestVertexRemovalSummarizer(t *testing.T) {
	g := fig3(t)
	v, err := VertexRemovalSummarizer{Types: []string{"File"}}.Materialize(g)
	if err != nil {
		t.Fatal(err)
	}
	if v.NumVertices() != 3 || v.NumEdges() != 0 {
		t.Errorf("removal result: |V|=%d |E|=%d, want 3/0", v.NumVertices(), v.NumEdges())
	}
}

func TestEdgeSummarizers(t *testing.T) {
	g := fig3(t)
	keep, err := EdgeInclusionSummarizer{Types: []string{"WRITES_TO"}}.Materialize(g)
	if err != nil {
		t.Fatal(err)
	}
	if keep.NumEdges() != 4 || keep.NumVertices() != 7 {
		t.Errorf("inclusion: |E|=%d |V|=%d, want 4/7", keep.NumEdges(), keep.NumVertices())
	}
	drop, err := EdgeRemovalSummarizer{Types: []string{"WRITES_TO"}}.Materialize(g)
	if err != nil {
		t.Fatal(err)
	}
	if drop.NumEdges() != 2 {
		t.Errorf("removal: |E|=%d, want 2", drop.NumEdges())
	}
}

func TestVertexAggregatorSummarizer(t *testing.T) {
	g := graph.NewGraph(nil)
	j1 := g.MustAddVertex("Job", graph.Properties{"pipeline": "p1", "CPU": int64(10)})
	j2 := g.MustAddVertex("Job", graph.Properties{"pipeline": "p1", "CPU": int64(30)})
	j3 := g.MustAddVertex("Job", graph.Properties{"pipeline": "p2", "CPU": int64(5)})
	f := g.MustAddVertex("File", nil)
	g.MustAddEdge(j1, f, "W", nil)
	g.MustAddEdge(j2, f, "W", nil)
	g.MustAddEdge(j3, f, "W", nil)

	v, err := VertexAggregatorSummarizer{
		VType: "Job", GroupBy: "pipeline",
		Aggs: map[string]AggFunc{"CPU": AggSum},
	}.Materialize(g)
	if err != nil {
		t.Fatal(err)
	}
	if v.CountVerticesOfType("Job") != 2 {
		t.Fatalf("supervertices = %d, want 2", v.CountVerticesOfType("Job"))
	}
	for _, id := range v.VerticesOfType("Job") {
		sv := v.Vertex(id)
		switch sv.Prop("pipeline") {
		case "p1":
			if sv.Prop("CPU").(int64) != 40 || sv.Prop("members").(int64) != 2 {
				t.Errorf("p1 supervertex = %v", sv.Props)
			}
		case "p2":
			if sv.Prop("CPU").(int64) != 5 {
				t.Errorf("p2 supervertex = %v", sv.Props)
			}
		}
	}
	// Edges re-pointed: p1 supervertex has 2 parallel edges to f.
	if v.NumEdges() != 3 {
		t.Errorf("|E| = %d, want 3", v.NumEdges())
	}
}

func TestEdgeAggregatorSummarizer(t *testing.T) {
	g := graph.NewGraph(nil)
	a := g.MustAddVertex("V", nil)
	b := g.MustAddVertex("V", nil)
	g.MustAddEdge(a, b, "E", graph.Properties{"w": int64(1)})
	g.MustAddEdge(a, b, "E", graph.Properties{"w": int64(2)})
	g.MustAddEdge(b, a, "E", graph.Properties{"w": int64(5)})
	g.MustAddEdge(a, b, "X", nil)

	v, err := EdgeAggregatorSummarizer{EType: "E", Aggs: map[string]AggFunc{"w": AggSum}}.Materialize(g)
	if err != nil {
		t.Fatal(err)
	}
	// a->b E merged (w=3), b->a E kept (w=5), a->b X passes through.
	if v.NumEdges() != 3 {
		t.Fatalf("|E| = %d, want 3", v.NumEdges())
	}
	var merged *graph.Edge
	v.EachEdge(func(e *graph.Edge) {
		if e.Type == "E" && e.From == 0 {
			merged = e
		}
	})
	if merged == nil || merged.Prop("w").(int64) != 3 || merged.Prop("members").(int64) != 2 {
		t.Errorf("merged edge = %v", merged)
	}
}

func TestSubgraphAggregatorSummarizer(t *testing.T) {
	g := graph.NewGraph(nil)
	a := g.MustAddVertex("V", graph.Properties{"c": "x"})
	b := g.MustAddVertex("V", graph.Properties{"c": "x"})
	c := g.MustAddVertex("V", graph.Properties{"c": "y"})
	g.MustAddEdge(a, b, "E", nil) // internal to group x
	g.MustAddEdge(b, c, "E", nil) // cross-group

	v, err := SubgraphAggregatorSummarizer{VType: "V", GroupBy: "c"}.Materialize(g)
	if err != nil {
		t.Fatal(err)
	}
	if v.NumVertices() != 2 {
		t.Fatalf("|V| = %d, want 2", v.NumVertices())
	}
	var xSuper *graph.Vertex
	for _, id := range v.VerticesOfType("V") {
		if v.Vertex(id).Prop("c") == "x" {
			xSuper = v.Vertex(id)
		}
	}
	if xSuper == nil || xSuper.Prop("internalEdges").(int64) != 1 {
		t.Errorf("x supervertex = %v", xSuper)
	}
	if v.NumEdges() != 1 {
		t.Errorf("|E| = %d, want 1 (cross-group only)", v.NumEdges())
	}
}

func TestSummarizerValidation(t *testing.T) {
	g := fig3(t)
	if _, err := (VertexInclusionSummarizer{}).Materialize(g); err == nil {
		t.Error("empty inclusion accepted")
	}
	if _, err := (VertexInclusionSummarizer{Types: []string{"Nope"}}).Materialize(g); err == nil {
		t.Error("unknown type accepted")
	}
	if _, err := (VertexAggregatorSummarizer{}).Materialize(g); err == nil {
		t.Error("empty aggregator accepted")
	}
	if _, err := aggregateInts("median", nil); err == nil {
		t.Error("unknown agg function accepted")
	}
}

func TestViewMetadata(t *testing.T) {
	vs := []View{
		KHopConnector{SrcType: "Job", DstType: "Job", K: 2},
		SameVertexTypeConnector{VType: "Author", MaxLen: 4},
		SameEdgeTypeConnector{EType: "T", MaxLen: 3},
		SourceToSinkConnector{MaxLen: 8},
		VertexInclusionSummarizer{Types: []string{"Job", "File"}},
		VertexRemovalSummarizer{Types: []string{"Task"}},
		EdgeInclusionSummarizer{Types: []string{"W"}},
		EdgeRemovalSummarizer{Types: []string{"W"}},
		VertexAggregatorSummarizer{VType: "Job", GroupBy: "p"},
		EdgeAggregatorSummarizer{EType: "E"},
		SubgraphAggregatorSummarizer{VType: "V", GroupBy: "c"},
	}
	seen := map[string]bool{}
	for _, v := range vs {
		if v.Name() == "" || v.Describe() == "" || v.Cypher() == "" {
			t.Errorf("%T: empty metadata", v)
		}
		if seen[v.Name()] {
			t.Errorf("duplicate view name %s", v.Name())
		}
		seen[v.Name()] = true
		switch v.Kind() {
		case KindConnector, KindSummarizer:
		default:
			t.Errorf("%T: bad kind %s", v, v.Kind())
		}
	}
	// Connector edge-count estimability is exposed for the cost model.
	var ev EstimatableView = KHopConnector{K: 3}
	if ev.PathLength() != 3 {
		t.Error("PathLength")
	}
}

// Invariant: the number of connector edges equals the number of k-length
// edge-unique paths as counted by direct DFS, on random small graphs.
func TestConnectorEdgeCountEqualsPathCount(t *testing.T) {
	soc, err := datagen.SocialNetwork(datagen.SocialConfig{Users: 60, Edges: 200, Exponent: 2.3, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 2, 3} {
		v, err := KHopConnector{K: k}.Materialize(soc)
		if err != nil {
			t.Fatal(err)
		}
		want := countPathsDFS(soc, k)
		if v.NumEdges() != want {
			t.Errorf("k=%d: connector edges=%d, DFS path count=%d", k, v.NumEdges(), want)
		}
	}
}

func countPathsDFS(g *graph.Graph, k int) int {
	count := 0
	out := make([][]graph.EdgeID, g.NumVertices())
	g.EachEdge(func(e *graph.Edge) { out[e.From] = append(out[e.From], e.ID) })
	used := make(map[graph.EdgeID]bool)
	var dfs func(at graph.VertexID, hops int)
	dfs = func(at graph.VertexID, hops int) {
		if hops == k {
			count++
			return
		}
		for _, eid := range out[at] {
			if used[eid] {
				continue
			}
			used[eid] = true
			dfs(g.Edge(eid).To, hops+1)
			used[eid] = false
		}
	}
	for i := 0; i < g.NumVertices(); i++ {
		dfs(graph.VertexID(i), 0)
	}
	return count
}
