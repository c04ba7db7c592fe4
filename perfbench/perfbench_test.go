package main

import (
	"context"
	"encoding/json"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"kaskade/internal/exec"
	"kaskade/internal/graph"
)

// TestWorkloadsSmoke runs every workload at tiny size, untraced and
// traced, and requires every answer check to pass and every declared
// metric to be reported.
func TestWorkloadsSmoke(t *testing.T) {
	for _, name := range slices.Sorted(maps.Keys(workloads)) {
		for _, trace := range []bool{false, true} {
			cfg := &config{workload: name, seed: 3, seconds: 300 * time.Millisecond, trace: trace, tiny: true,
				traceOut: filepath.Join(t.TempDir(), "trace.json")}
			out, err := execute(context.Background(), cfg, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, out.Correct, out.Attempted, out.Failed)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(out.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(out.Metrics), len(defs))
			}
			for _, d := range defs {
				if m, ok := out.Metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", name, trace, d.name, m, d.unit)
				}
			}
			if !trace {
				for _, d := range endToEnd {
					if out.Metrics[d.name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.name, out.Metrics[d.name].Value)
					}
				}
			}
			if trace {
				b, err := os.ReadFile(cfg.traceOut)
				if err != nil {
					t.Fatalf("%s: trace file: %v", name, err)
				}
				var doc struct {
					Spans  []span             `json:"spans"`
					SelfMS map[string]float64 `json:"self_ms"`
				}
				if err := json.Unmarshal(b, &doc); err != nil || len(doc.Spans) == 0 || len(doc.SelfMS) == 0 {
					t.Errorf("%s: trace file has %d spans, %d layers (%v)", name, len(doc.Spans), len(doc.SelfMS), err)
				}
			}
		}
	}
}

// TestSameSeedSameInput pins that a seed fixes the generated input.
func TestSameSeedSameInput(t *testing.T) {
	sz := provSize{40, 100, 2}
	a, err := provInput(sz, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := provInput(sz, 7)
	if err != nil {
		t.Fatal(err)
	}
	c, err := provInput(sz, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(viewFingerprint(a), viewFingerprint(b)) {
		t.Error("seed 7 generated two different inputs")
	}
	if slices.Equal(viewFingerprint(a), viewFingerprint(c)) {
		t.Error("seeds 7 and 8 generated the same input")
	}
}

// TestDigestRendersVerticesByName pins the answer check's rendering:
// the same answer over graphs whose vertex IDs differ must match, and a
// different answer must not.
func TestDigestRendersVerticesByName(t *testing.T) {
	schema := graph.MustSchema([]string{"Job"}, nil)
	g1, g2 := graph.NewGraph(schema), graph.NewGraph(schema)
	g2.MustAddVertex("Job", graph.Properties{"name": "padding"})
	a1 := g1.MustAddVertex("Job", graph.Properties{"name": "a"})
	b1 := g1.MustAddVertex("Job", graph.Properties{"name": "b"})
	b2 := g2.MustAddVertex("Job", graph.Properties{"name": "b"})
	a2 := g2.MustAddVertex("Job", graph.Properties{"name": "a"})
	res := func(g *graph.Graph, ids ...graph.VertexID) *exec.Result {
		r := &exec.Result{Cols: []string{"x", "n"}}
		for _, id := range ids {
			r.Rows = append(r.Rows, exec.Row{exec.VertexRef{G: g, ID: id}, int64(1)})
		}
		return r
	}
	if digestOf(res(g1, a1, b1)) != digestOf(res(g2, b2, a2)) {
		t.Error("equal answers over different graphs, rows in another order, digest differently")
	}
	if digestOf(res(g1, a1, a1)) == digestOf(res(g2, a2, b2)) {
		t.Error("different answers digest equally")
	}
}

// TestBenchmarkFileMatchesProgram keeps BENCHMARK.json's workloads and
// metrics in step with what the program runs and reports.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	slices.Sort(names)
	if want := slices.Sorted(maps.Keys(workloads)); !slices.Equal(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, want)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}
