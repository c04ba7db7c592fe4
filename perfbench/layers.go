package main

import (
	"context"
	"maps"
	"math"
	"slices"
	"strings"
	"sync"
	"time"

	"kaskade/internal/exec"
	"kaskade/internal/gql"
	"kaskade/internal/graph"
)

// layerStats accumulates a traced run's per-layer measurements. A nil
// *layerStats records nothing.
type layerStats struct {
	mu   sync.Mutex
	sum  map[string]float64
	n    map[string]int
	max  map[string]float64
	arms map[string]*arm
}

// arm compares one query shape's execution with and without views.
type arm struct {
	views, noviews   time.Duration
	nViews, nNoviews int
	hit              bool    // the plan landed on a view
	predicted        float64 // cost model's base cost / view plan cost
}

func newLayerStats() *layerStats {
	return &layerStats{sum: map[string]float64{}, n: map[string]int{}, max: map[string]float64{}, arms: map[string]*arm{}}
}

// add records one observation of a named quantity.
func (l *layerStats) add(name string, v float64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sum[name] += v
	l.n[name]++
	if v > l.max[name] {
		l.max[name] = v
	}
}

func (l *layerStats) mean(name string) float64 {
	if l.n[name] == 0 {
		return 0
	}
	return l.sum[name] / float64(l.n[name])
}

// ratio is sum(num) / sum(den), 0 when den is empty.
func (l *layerStats) ratio(num, den string) float64 {
	if l.sum[den] == 0 {
		return 0
	}
	return l.sum[num] / l.sum[den]
}

// timeArm adds one execution of the shape key to its views or no-views
// side.
func (l *layerStats) timeArm(key string, noviews bool, d time.Duration) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	a := l.armLocked(key)
	if noviews {
		a.noviews += d
		a.nNoviews++
	} else {
		a.views += d
		a.nViews++
	}
}

// planArm records where the shape key's plan landed and the speedup the
// cost model predicted for it.
func (l *layerStats) planArm(key string, hit bool, predicted float64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	a := l.armLocked(key)
	a.hit, a.predicted = hit, predicted
}

func (l *layerStats) armLocked(key string) *arm {
	a := l.arms[key]
	if a == nil {
		a = &arm{}
		l.arms[key] = a
	}
	return a
}

// speedups returns the geometric means, over the shapes whose plan
// landed on a view, of the measured speedup (no-views time / views
// time) and the cost model's predicted speedup.
func (l *layerStats) speedups() (measured, predicted float64) {
	var logM, logP float64
	var n int
	for _, key := range slices.Sorted(maps.Keys(l.arms)) {
		a := l.arms[key]
		if !a.hit || a.nViews == 0 || a.nNoviews == 0 || a.views <= 0 || a.predicted <= 0 {
			continue
		}
		mv := a.views.Seconds() / float64(a.nViews)
		mb := a.noviews.Seconds() / float64(a.nNoviews)
		logM += math.Log(mb / mv)
		logP += math.Log(a.predicted)
		n++
	}
	if n == 0 {
		return 0, 0
	}
	return math.Exp(logM / float64(n)), math.Exp(logP / float64(n))
}

// perLayer computes the per-layer metrics of a traced run; e2e holds
// the end-to-end metrics of the same run's untraced phases.
func (r *result) perLayer(e2e map[string]float64) map[string]float64 {
	l := r.layers
	m := map[string]float64{}
	for _, name := range []string{
		"gql.parse_us", "enum.enumerate_us", "enum.candidates", "workload.rewrite_us",
		"exec.execute_ms", "exec.match_ms", "exec.aggregate_ms", "exec.noviews_execute_ms",
		"workload.select_ms", "views.materialize_ms", "graph.freeze_ms", "workload.view_space_ratio",
		"views.maintain_us", "views.view_edges_per_mutation", "graph.compactions",
		"graph.compaction_mutation_ms", "graph.overlay_reads_per_query",
		"server.request_ms", "server.overhead_ms",
	} {
		m[name] = l.mean(name)
	}
	m["workload.rewrite_hit_ratio"] = l.mean("workload.rewrite_hit")
	m["exec.match_rows_per_result"] = l.ratio("exec.match_rows", "exec.result_rows")
	m["exec.view_speedup"], m["cost.predicted_speedup"] = l.speedups()
	m["graph.tail_edges_max"] = l.max["graph.tail_edges"]
	m["server.prepared_hit_ratio"] = l.mean("server.prepared_hit")
	m["server.cache_hit_ratio"] = l.mean("server.cache_hit")
	m["server.rejected_429"] = l.sum["server.rejected"]
	m["server.bytes_per_row"] = l.ratio("server.bytes", "server.rows")
	for _, name := range []string{"mutation_p50_ms", "mutation_p99_ms", "mutations_per_s"} {
		m[name] = e2e[name]
	}
	traced, _ := mergeLogs(r.traced)
	m["trace.overhead_ms"] = quantileMS(traced, 0.5) - e2e["query_p50_ms"]
	return m
}

// executeTraced runs q on g through the exec layer inside an
// exec.execute span and records the executor's stage profile.
func executeTraced(ctx context.Context, g *graph.Graph, q gql.Query, workers int, tr *tracer, parent int, req int64, ls *layerStats) (*exec.Result, time.Duration, error) {
	prof := &exec.Profile{}
	ex := &exec.Executor{G: g, Workers: workers, Prof: prof}
	sp := tr.begin("exec.execute", parent, req)
	res, err := ex.ExecuteContext(ctx, q)
	d := tr.end(sp)
	if err != nil {
		return nil, d, err
	}
	var match, agg time.Duration
	var matchRows int64
	for _, st := range prof.Stages {
		switch {
		case st.Stage == "match":
			match += st.Dur
			matchRows += st.Rows
		case strings.HasSuffix(st.Stage, "aggregate"):
			agg += st.Dur
		}
	}
	ls.add("exec.execute_ms", ms(d))
	ls.add("exec.match_ms", ms(match))
	ls.add("exec.aggregate_ms", ms(agg))
	ls.add("exec.match_rows", float64(matchRows))
	ls.add("exec.result_rows", float64(prof.Rows))
	return res, d, nil
}

// executeNoViews runs the no-views arm of a traced comparison: q on the
// base graph, in its own top-level span.
func executeNoViews(ctx context.Context, base *graph.Graph, q gql.Query, workers int, tr *tracer, req int64, ls *layerStats, key string) (*exec.Result, error) {
	ex := &exec.Executor{G: base, Workers: workers}
	sp := tr.begin("exec.execute_noviews", 0, req)
	res, err := ex.ExecuteContext(ctx, q)
	d := tr.end(sp)
	if err != nil {
		return nil, err
	}
	ls.add("exec.noviews_execute_ms", ms(d))
	ls.timeArm(key, true, d)
	return res, nil
}
