package delta

import (
	"testing"

	"kaskade/internal/graph"
)

// TestEdgeDeltasK1 pins the trivial case: a 1-hop view's delta for a
// new edge is the edge itself, when its endpoints satisfy the types.
func TestEdgeDeltasK1(t *testing.T) {
	g := graph.NewGraph(nil)
	a := g.MustAddVertex("Job", nil)
	b := g.MustAddVertex("File", nil)
	eid := g.MustAddEdge(a, b, "W", graph.Properties{"ts": int64(7)})
	des := EdgeDeltas(g, eid, Config{SrcType: "Job", DstType: "File", Ks: []int{1}})
	if len(des[1]) != 1 {
		t.Fatalf("k=1 delta = %v, want one edge", des[1])
	}
	if de := des[1][0]; de.From != a || de.To != b || de.K != 1 || de.TS != 7 {
		t.Fatalf("k=1 delta = %+v", de)
	}
	// Wrong endpoint type: no delta.
	des = EdgeDeltas(g, eid, Config{SrcType: "File", DstType: "File", Ks: []int{1}})
	if len(des[1]) != 0 {
		t.Fatalf("type-mismatched delta = %v", des[1])
	}
}

// TestEdgeDeltasFilteredType pins the edge filter: a rejected edge type
// yields empty deltas for every k.
func TestEdgeDeltasFilteredType(t *testing.T) {
	g := graph.NewGraph(nil)
	a := g.MustAddVertex("V", nil)
	b := g.MustAddVertex("V", nil)
	eid := g.MustAddEdge(a, b, "OTHER", nil)
	des := EdgeDeltas(g, eid, Config{EdgeTypes: []string{"E"}, Ks: []int{1, 2, 3}})
	for k, d := range des {
		if len(d) != 0 {
			t.Fatalf("k=%d delta for filtered edge: %v", k, d)
		}
	}
}

// TestEdgeDeltasSharedFrontier pins the chain property: one call with
// Ks={1,2,3} produces exactly what three independent per-k calls do.
func TestEdgeDeltasSharedFrontier(t *testing.T) {
	g := graph.NewGraph(nil)
	var ids []graph.VertexID
	for i := 0; i < 6; i++ {
		ids = append(ids, g.MustAddVertex("V", nil))
	}
	// A diamond with a chord so the new edge sits at several positions.
	g.MustAddEdge(ids[0], ids[1], "E", graph.Properties{"ts": int64(1)})
	g.MustAddEdge(ids[1], ids[2], "E", graph.Properties{"ts": int64(2)})
	g.MustAddEdge(ids[2], ids[3], "E", graph.Properties{"ts": int64(3)})
	g.MustAddEdge(ids[3], ids[4], "E", graph.Properties{"ts": int64(4)})
	eid := g.MustAddEdge(ids[2], ids[5], "E", graph.Properties{"ts": int64(5)})

	shared := EdgeDeltas(g, eid, Config{Ks: []int{1, 2, 3}})
	for _, k := range []int{1, 2, 3} {
		solo := EdgeDeltas(g, eid, Config{Ks: []int{k}})
		if len(shared[k]) != len(solo[k]) {
			t.Fatalf("k=%d: shared %d edges, solo %d", k, len(shared[k]), len(solo[k]))
		}
		for i := range solo[k] {
			if shared[k][i] != solo[k][i] {
				t.Fatalf("k=%d edge %d: shared %+v, solo %+v", k, i, shared[k][i], solo[k][i])
			}
		}
	}
	if len(shared[1]) == 0 || len(shared[2]) == 0 || len(shared[3]) == 0 {
		t.Fatalf("frontier exercised nothing: %d/%d/%d", len(shared[1]), len(shared[2]), len(shared[3]))
	}
}

// TestEdgeDeltasEdgeUniqueness pins path edge-uniqueness across
// prefix+edge+suffix on a 2-cycle (the back edge may not be reused on
// both sides of the new edge) and within one walk on a self-loop (the
// loop may not be taken twice).
func TestEdgeDeltasEdgeUniqueness(t *testing.T) {
	g := graph.NewGraph(nil)
	a := g.MustAddVertex("V", nil)
	b := g.MustAddVertex("V", nil)
	g.MustAddEdge(a, b, "E", nil)
	eid := g.MustAddEdge(b, a, "E", nil)
	des := EdgeDeltas(g, eid, Config{Ks: []int{2, 3}})
	// k=2: b->(new)->a->(old)->b and a->(old)->b->(new)->a.
	if len(des[2]) != 2 {
		t.Fatalf("k=2 deltas = %v, want 2", des[2])
	}
	// k=3 would need the old edge on both sides of the new one.
	if len(des[3]) != 0 {
		t.Fatalf("k=3 reused an edge: %v", des[3])
	}

	h := graph.NewGraph(nil)
	c := h.MustAddVertex("V", nil)
	d := h.MustAddVertex("V", nil)
	h.MustAddEdge(c, c, "E", nil)
	eid = h.MustAddEdge(c, d, "E", nil)
	des = EdgeDeltas(h, eid, Config{Ks: []int{2, 3}})
	// k=2: c->(loop)->c->(new)->d; k=3 would need the loop twice.
	if len(des[2]) != 1 || len(des[3]) != 0 {
		t.Fatalf("self-loop deltas: k=2 %v, k=3 %v; want one and none", des[2], des[3])
	}
}

// TestEdgeDeltasNegativeTS pins timestamp aggregation: max over the
// path's edges, with absent ts reading as 0 and negative values never
// masked by a zero seed.
func TestEdgeDeltasNegativeTS(t *testing.T) {
	g := graph.NewGraph(nil)
	a := g.MustAddVertex("V", nil)
	b := g.MustAddVertex("V", nil)
	c := g.MustAddVertex("V", nil)
	g.MustAddEdge(a, b, "E", graph.Properties{"ts": int64(-5)})
	eid := g.MustAddEdge(b, c, "E", graph.Properties{"ts": int64(-3)})
	des := EdgeDeltas(g, eid, Config{Ks: []int{2}})
	if len(des[2]) != 1 || des[2][0].TS != -3 {
		t.Fatalf("k=2 delta = %v, want one edge with ts=-3", des[2])
	}
}
