package graph

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func roundTrip(t *testing.T, g *Graph) *Graph {
	t.Helper()
	var buf bytes.Buffer
	if err := Save(&buf, g); err != nil {
		t.Fatalf("Save: %v", err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	return back
}

func TestSaveLoadRoundTrip(t *testing.T) {
	s := MustSchema(
		[]string{"Job", "File"},
		[]EdgeType{
			{From: "Job", To: "File", Name: "W"},
			{From: "File", To: "Job", Name: "R"},
		},
	)
	g := NewGraph(s)
	j := g.MustAddVertex("Job", Properties{"name": "j1", "CPU": int64(42), "load": 0.5, "mem": 2.0})
	f := g.MustAddVertex("File", nil)
	g.MustAddEdge(j, f, "W", Properties{"ts": int64(7)})
	g.MustAddEdge(f, j, "R", nil)

	back := roundTrip(t, g)
	if back.NumVertices() != 2 || back.NumEdges() != 2 {
		t.Fatalf("sizes: %v", back)
	}
	// Schema survived.
	if back.Schema() == nil || !back.Schema().AllowsEdge("Job", "File", "W") {
		t.Error("schema lost in round trip")
	}
	// Property types survived: int64 stays int64, float stays float.
	v := back.Vertex(0)
	if v.Prop("CPU") != int64(42) {
		t.Errorf("CPU = %v (%T), want int64 42", v.Prop("CPU"), v.Prop("CPU"))
	}
	if v.Prop("load") != 0.5 {
		t.Errorf("load = %v, want 0.5", v.Prop("load"))
	}
	if v.Prop("mem") != 2.0 {
		t.Errorf("mem = %v (%T), want float64 2", v.Prop("mem"), v.Prop("mem"))
	}
	if v.Prop("name") != "j1" {
		t.Errorf("name = %v", v.Prop("name"))
	}
	// Edge identity and properties survived.
	e := back.Edge(0)
	if e.From != j || e.To != f || e.Type != "W" || e.Prop("ts") != int64(7) {
		t.Errorf("edge 0 = %+v", e)
	}
}

func TestSaveLoadNoSchema(t *testing.T) {
	g := NewGraph(nil)
	a := g.MustAddVertex("V", nil)
	b := g.MustAddVertex("V", nil)
	g.MustAddEdge(a, b, "E", nil)
	back := roundTrip(t, g)
	if back.Schema() != nil {
		t.Error("schema materialized from nothing")
	}
	if back.NumEdges() != 1 {
		t.Errorf("|E| = %d", back.NumEdges())
	}
}

func TestSaveLoadEmpty(t *testing.T) {
	back := roundTrip(t, NewGraph(nil))
	if back.NumVertices() != 0 || back.NumEdges() != 0 {
		t.Errorf("empty round trip: %v", back)
	}
}

func TestLoadErrors(t *testing.T) {
	cases := map[string]string{
		"edge before vertex": "E\t0\t1\tX\t{}",
		"unknown record":     "Z\tfoo",
		"malformed vertex":   "V\t0\tJob",
		"bad vertex id":      "V\tzero\tJob\t{}",
		"non-dense id":       "V\t5\tJob\t{}",
		"bad props":          "V\t0\tJob\t{not json}",
		"schema after data":  "V\t0\tJob\t{}\nS\t[\"Job\"]\t[]",
		"edge bad endpoint":  "V\t0\tV\t{}\nE\t0\tx\tT\t{}",
		// 4294967296 and 4294967297 truncate to vertices 0 and 1.
		"edge source wraps int32": "V\t0\tV\t{}\nV\t1\tV\t{}\nE\t4294967296\t1\tT\t{}",
		"edge target wraps int32": "V\t0\tV\t{}\nV\t1\tV\t{}\nE\t0\t4294967297\tT\t{}",
	}
	for name, src := range cases {
		if _, err := Load(strings.NewReader(src)); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
}

func TestLoadSkipsCommentsAndBlanks(t *testing.T) {
	src := "# a comment\n\nV\t0\tV\t{}\nV\t1\tV\t{}\n# another\nE\t0\t1\tT\t{}\n"
	g, err := Load(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 2 || g.NumEdges() != 1 {
		t.Errorf("loaded %v", g)
	}
}

func TestLoadEnforcesSchema(t *testing.T) {
	src := "S\t[\"Job\"]\t[]\nV\t0\tTask\t{}\n"
	if _, err := Load(strings.NewReader(src)); err == nil {
		t.Error("schema-violating vertex accepted")
	}
}

// FuzzLoad treats a dataset file as untrusted input: every input either
// fails to load or yields a graph that Save→Load reproduces exactly and
// whose Frozen accessors match the edge-log reference.
func FuzzLoad(f *testing.F) {
	for _, seed := range []string{
		"V\t0\tV\t{}\nV\t1\tV\t{}\nE\t4294967296\t1\tx\t{}",
		"V\t0\tV\t{}\nV\t1\tW\t{\"n\":1}\nE\t0\t1\tT\t{}\nE\t1\t1\tU\t{\"ts\":2.5}\nE\t0\t1\tT\t{}",
		"S\t[\"Job\",\"File\"]\t[{\"From\":\"Job\",\"To\":\"File\",\"Name\":\"W\"}]\t[{\"type\":\"Job\",\"prop\":\"CPU\",\"kind\":1}]\n" +
			"V\t0\tJob\t{\"CPU\":4}\nV\t1\tFile\t{}\nE\t0\t1\tW\t{}",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		var saved bytes.Buffer
		if err := Save(&saved, g); err != nil {
			t.Fatalf("Save: %v", err)
		}
		back, err := Load(bytes.NewReader(saved.Bytes()))
		if err != nil {
			t.Fatalf("reload of %q: %v", saved.Bytes(), err)
		}
		var resaved bytes.Buffer
		if err := Save(&resaved, back); err != nil {
			t.Fatalf("Save after reload: %v", err)
		}
		if !bytes.Equal(saved.Bytes(), resaved.Bytes()) {
			t.Fatalf("Save→Load→Save changed the file:\n%q\n%q", saved.Bytes(), resaved.Bytes())
		}
		if g.NumVertices() != back.NumVertices() || g.NumEdges() != back.NumEdges() {
			t.Fatalf("sizes %d/%d, reloaded %d/%d", g.NumVertices(), g.NumEdges(), back.NumVertices(), back.NumEdges())
		}
		for i := 0; i < g.NumVertices(); i++ {
			if a, b := g.Vertex(VertexID(i)), back.Vertex(VertexID(i)); !reflect.DeepEqual(a, b) {
				t.Fatalf("vertex %d = %#v, reloaded %#v", i, a, b)
			}
		}
		for i := 0; i < g.NumEdges(); i++ {
			if a, b := g.Edge(EdgeID(i)), back.Edge(EdgeID(i)); !reflect.DeepEqual(a, b) {
				t.Fatalf("edge %d = %#v, reloaded %#v", i, a, b)
			}
		}
		assertFrozenMatchesGraph(t, g.Freeze(), g)
	})
}
