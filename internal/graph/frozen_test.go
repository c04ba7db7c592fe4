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
// to the edge log: Out/In list the edges with From/To == v in ID order,
// and OutOfType/InOfType are the insertion-order subsequences a per-edge
// type filter would produce.
func TestFrozenPreservesAdjacencyOrder(t *testing.T) {
	g := randomFrozenGraph(t, 1, 200, 1500)
	assertFrozenMatchesGraph(t, g.Freeze(), g)
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
