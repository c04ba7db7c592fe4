package graph

import (
	"math/rand"
	"sync"
	"testing"
)

func randomFrozenGraph(t testing.TB, seed int64, nv, ne int) *Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := NewGraph(nil)
	vtypes := []string{"Job", "File", "Task", "Machine"}
	etypes := []string{"W", "R", "T"}
	for i := 0; i < nv; i++ {
		g.MustAddVertex(vtypes[rng.Intn(len(vtypes))], nil)
	}
	for i := 0; i < ne; i++ {
		g.MustAddEdge(VertexID(rng.Intn(nv)), VertexID(rng.Intn(nv)),
			etypes[rng.Intn(len(etypes))], nil)
	}
	return g
}

// TestFrozenPreservesAdjacencyOrder proves the CSR rows byte-identical
// to the append-mode accessors: Out/In match Graph.Out/In exactly, and
// OutOfType/InOfType are the insertion-order subsequences a per-edge
// type filter would produce.
func TestFrozenPreservesAdjacencyOrder(t *testing.T) {
	g := randomFrozenGraph(t, 1, 200, 1500)
	f := g.Freeze()
	if f.NumVertices() != g.NumVertices() || f.NumEdges() != g.NumEdges() {
		t.Fatalf("sizes: frozen %d/%d, graph %d/%d",
			f.NumVertices(), f.NumEdges(), g.NumVertices(), g.NumEdges())
	}
	for v := 0; v < g.NumVertices(); v++ {
		id := VertexID(v)
		for _, pair := range []struct {
			name      string
			want, got []EdgeID
			wantDeg   int
			gotDeg    int
		}{
			{"out", g.Out(id), f.Out(id), g.OutDegree(id), f.OutDegree(id)},
			{"in", g.In(id), f.In(id), g.InDegree(id), f.InDegree(id)},
		} {
			if len(pair.want) != len(pair.got) || pair.wantDeg != pair.gotDeg {
				t.Fatalf("v%d %s: len %d/%d deg %d/%d", v, pair.name,
					len(pair.got), len(pair.want), pair.gotDeg, pair.wantDeg)
			}
			for i := range pair.want {
				if pair.want[i] != pair.got[i] {
					t.Fatalf("v%d %s[%d] = %d, want %d", v, pair.name, i, pair.got[i], pair.want[i])
				}
			}
		}
		// Typed groups == filtered insertion order.
		for _, et := range []string{"W", "R", "T", "NOPE"} {
			var want []EdgeID
			for _, eid := range g.Out(id) {
				if g.Edge(eid).Type == et {
					want = append(want, eid)
				}
			}
			got := f.OutOfType(id, et)
			if len(want) != len(got) {
				t.Fatalf("v%d OutOfType(%s): %d edges, want %d", v, et, len(got), len(want))
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("v%d OutOfType(%s)[%d] = %d, want %d", v, et, i, got[i], want[i])
				}
			}
			var wantIn []EdgeID
			for _, eid := range g.In(id) {
				if g.Edge(eid).Type == et {
					wantIn = append(wantIn, eid)
				}
			}
			gotIn := f.InOfType(id, et)
			if len(wantIn) != len(gotIn) {
				t.Fatalf("v%d InOfType(%s): %d edges, want %d", v, et, len(gotIn), len(wantIn))
			}
			for i := range wantIn {
				if wantIn[i] != gotIn[i] {
					t.Fatalf("v%d InOfType(%s)[%d] = %d, want %d", v, et, i, gotIn[i], wantIn[i])
				}
			}
		}
	}
	// Flat endpoint/type arrays match the records.
	for e := 0; e < g.NumEdges(); e++ {
		eid := EdgeID(e)
		ed := g.Edge(eid)
		if f.From(eid) != ed.From || f.To(eid) != ed.To || f.EdgeTypeOf(eid) != ed.Type {
			t.Fatalf("edge %d: frozen (%d,%d,%s) != record (%d,%d,%s)",
				e, f.From(eid), f.To(eid), f.EdgeTypeOf(eid), ed.From, ed.To, ed.Type)
		}
	}
	// Vertex types and the per-type index.
	for v := 0; v < g.NumVertices(); v++ {
		if f.VertexTypeOf(VertexID(v)) != g.Vertex(VertexID(v)).Type {
			t.Fatalf("vertex %d type mismatch", v)
		}
	}
	for _, vt := range append(g.VertexTypes(), "NOPE") {
		want := g.VerticesOfType(vt)
		got := f.VerticesOfType(vt)
		if len(want) != len(got) {
			t.Fatalf("VerticesOfType(%s): %d, want %d", vt, len(got), len(want))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("VerticesOfType(%s)[%d] mismatch", vt, i)
			}
		}
	}
}

// TestFreezeMemoizesAndInvalidates pins the snapshot lifecycle: Freeze
// caches, mutation lands in the cached snapshot's tail (same pointer,
// live counts), and no rebuild happens.
func TestFreezeMemoizesAndInvalidates(t *testing.T) {
	t.Run("overlay", func(t *testing.T) {
		g := NewGraph(nil)
		a := g.MustAddVertex("V", nil)
		b := g.MustAddVertex("V", nil)
		g.MustAddEdge(a, b, "E", nil)
		f1 := g.Freeze()
		if f2 := g.Freeze(); f1 != f2 {
			t.Fatal("Freeze did not memoize")
		}
		builds := CSRBuilds()
		g.MustAddEdge(b, a, "E", nil)
		f3 := g.Freeze()
		if f3 != f1 {
			t.Fatal("mutation dropped the overlay snapshot")
		}
		if f3.NumEdges() != 2 || len(f3.In(a)) != 1 {
			t.Fatalf("overlay view stale: |E|=%d, in(a)=%d", f3.NumEdges(), len(f3.In(a)))
		}
		if tv, te := f3.TailSize(); tv != 0 || te != 1 {
			t.Fatalf("TailSize = (%d, %d), want (0, 1)", tv, te)
		}
		if got := CSRBuilds(); got != builds {
			t.Fatalf("overlay mutation rebuilt the CSR (%d builds)", got-builds)
		}
	})
}

// TestFreezeConcurrent races many first-time Freeze calls; all must
// observe one coherent view (run with -race).
func TestFreezeConcurrent(t *testing.T) {
	g := randomFrozenGraph(t, 2, 100, 500)
	var wg sync.WaitGroup
	results := make([]*Frozen, 8)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = g.Freeze()
		}(i)
	}
	wg.Wait()
	for _, f := range results {
		if f.NumEdges() != g.NumEdges() {
			t.Fatal("incoherent frozen view")
		}
	}
}

// TestSchemaDeclareProperty covers the declaration API: kinds resolve
// for vertex and edge type names, unknown types error, and Extend (the
// view-schema derivation) carries declarations over.
func TestSchemaDeclareProperty(t *testing.T) {
	s := MustSchema([]string{"Job", "File"}, []EdgeType{
		{From: "Job", To: "File", Name: "WRITES_TO"},
	})
	if err := s.DeclareProperty("Job", "CPU", PropInt); err != nil {
		t.Fatal(err)
	}
	if err := s.DeclareProperty("WRITES_TO", "ts", PropInt); err != nil {
		t.Fatalf("edge type name declaration: %v", err)
	}
	if err := s.DeclareProperty("Nope", "x", PropInt); err == nil {
		t.Error("unknown type accepted")
	}
	if err := s.DeclareProperty("Job", "", PropInt); err == nil {
		t.Error("empty property accepted")
	}
	if err := s.DeclareProperty("Job", "x", PropKind(99)); err == nil {
		t.Error("invalid kind accepted")
	}
	if k, ok := s.PropertyKind("Job", "CPU"); !ok || k != PropInt {
		t.Errorf("PropertyKind(Job, CPU) = %v/%v", k, ok)
	}
	if _, ok := s.PropertyKind("Job", "mem"); ok {
		t.Error("undeclared property resolved")
	}
	ext, err := s.Extend([]string{"Task"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if k, ok := ext.PropertyKind("Job", "CPU"); !ok || k != PropInt {
		t.Error("Extend dropped property declarations")
	}
	// AdoptProperties keeps only declarations whose type survives.
	narrow := MustSchema([]string{"Job"}, nil)
	narrow.AdoptProperties(s)
	if k, ok := narrow.PropertyKind("Job", "CPU"); !ok || k != PropInt {
		t.Error("AdoptProperties dropped surviving declaration")
	}
	if _, ok := narrow.PropertyKind("WRITES_TO", "ts"); ok {
		t.Error("AdoptProperties kept declaration for absent type")
	}
}
