// Command perfbench is the repository benchmark: it runs one workload
// through the engine's public entry points for a fixed time, checks
// every answer, and prints the workload's metrics. The last line of its
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1
// the run also records spans around every call into a layer and
// reports the per-layer metrics, writing the spans to a JSON file when
// it ends. Run it through run.sh, which builds it from source:
//
//	bash perfbench/run.sh --workload adhoc-plan --seed 1 --seconds 10 --trace 0
//
// README.md in this directory describes the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a --trace 0 run reports, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"query_p50_ms", "ms"},
	{"query_p99_ms", "ms"},
	{"queries_per_s", "1/s"},
	{"heap_mb", "MB"},
}

// perLayer are the metrics a --trace 1 run reports, on every workload;
// a layer that is not on a workload's path reports 0 there.
var perLayer = []metricDef{
	{"gql.parse_us", "us"},
	{"enum.enumerate_us", "us"},
	{"enum.candidates", "count"},
	{"workload.rewrite_us", "us"},
	{"workload.rewrite_hit_ratio", "ratio"},
	{"exec.execute_ms", "ms"},
	{"exec.match_ms", "ms"},
	{"exec.aggregate_ms", "ms"},
	{"exec.match_rows_per_result", "ratio"},
	{"exec.noviews_execute_ms", "ms"},
	{"exec.view_speedup", "ratio"},
	{"cost.predicted_speedup", "ratio"},
	{"workload.select_ms", "ms"},
	{"views.materialize_ms", "ms"},
	{"graph.freeze_ms", "ms"},
	{"workload.view_space_ratio", "ratio"},
	{"views.maintain_us", "us"},
	{"views.view_edges_per_mutation", "ratio"},
	{"graph.compactions", "count"},
	{"graph.compaction_mutation_ms", "ms"},
	{"graph.overlay_reads_per_query", "count"},
	{"graph.tail_edges_max", "count"},
	{"server.request_ms", "ms"},
	{"server.overhead_ms", "ms"},
	{"server.prepared_hit_ratio", "ratio"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.rejected_429", "count"},
	{"server.bytes_per_row", "B"},
	{"mutation_p50_ms", "ms"},
	{"mutation_p99_ms", "ms"},
	{"mutations_per_s", "1/s"},
	{"trace.overhead_ms", "ms"},
}

// config is one run's parameters.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	traceOut string
	// tiny shrinks every input so a run finishes in well under a
	// second (the smoke test).
	tiny bool
}

// workloads maps each workload name to its driver.
var workloads = map[string]func(context.Context, *config, *result) error{
	"adhoc-plan":      runAdhoc,
	"views-exec":      runViewsExec,
	"ingest-maintain": runIngest,
	"service-http":    runService,
}

// workers is the match parallelism of views-exec and the session count
// of service-http: one less than the CPUs the process may use, at least
// 1. The spare CPU takes the collector's background work. With every
// CPU busy, runs of the same code on a shared host differed by up to
// 30% from one set of runs to the next.
func workers() int { return max(1, runtime.NumCPU()-1) }

// pick returns the full-size value, or the tiny one for the smoke test.
func pick[T any](c *config, full, tiny T) T {
	if c.tiny {
		return tiny
	}
	return full
}

// result accumulates one run's measurements.
type result struct {
	queries    []*opLog // untraced query clients
	traced     []*opLog // traced query clients (trace runs only)
	mutations  []*opLog // ingest-maintain's mutation calls, untraced
	tracedMuts opLog    // ingest-maintain's mutation calls, traced
	checks     opLog    // checks that are not a single operation's answer
	setup      []float64
	heapMB     []float64
	tr         *tracer
	layers     *layerStats
}

func newLogs(n int) []*opLog {
	logs := make([]*opLog, n)
	for i := range logs {
		logs[i] = &opLog{}
	}
	return logs
}

// totals sums attempted and failed operations over every log.
func (r *result) totals() (attempted, failed int, problems []string) {
	logs := append(append(append([]*opLog{&r.checks, &r.tracedMuts}, r.queries...), r.traced...), r.mutations...)
	for _, o := range logs {
		attempted += o.attempted
		failed += o.failed
		problems = append(problems, o.problems...)
	}
	return attempted, failed, problems
}

// summary is the benchmark's last output line.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// execute runs the workload named in cfg and returns the summary,
// writing human-readable lines to w.
func execute(ctx context.Context, cfg *config, w io.Writer) (*summary, error) {
	run, ok := workloads[cfg.workload]
	if !ok {
		names := slices.Sorted(maps.Keys(workloads))
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(names, ", "))
	}
	res := &result{}
	if cfg.trace {
		res.tr = newTracer()
		res.layers = newLayerStats()
	}
	if err := run(ctx, cfg, res); err != nil {
		return nil, err
	}
	attempted, failed, problems := res.totals()
	for _, p := range problems {
		fmt.Fprintf(w, "check failed: %s\n", p)
	}
	e2e := res.endToEnd(w)
	fmt.Fprintf(w, "%-32s %14.6f %s\n", "error_rate", float64(failed)/float64(max(1, attempted)), "ratio")
	out := &summary{Correct: failed == 0 && attempted > 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	defs, values := endToEnd, e2e
	if cfg.trace {
		defs, values = perLayer, res.perLayer(e2e)
		path := cfg.traceOut
		if path == "" {
			path = filepath.Join(".bench_build", "perfbench", "traces", fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
		}
		if err := res.tr.write(path, cfg.workload, cfg.seed, w); err != nil {
			return nil, fmt.Errorf("writing trace: %w", err)
		}
	}
	for _, d := range defs {
		v := values[d.name]
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		if cfg.trace {
			fmt.Fprintf(w, "%-32s %14.6f %s\n", d.name, v, d.unit)
		}
	}
	return out, nil
}

// endToEnd computes the end-to-end metrics from the untraced operations
// and prints them, with their sample counts.
func (r *result) endToEnd(w io.Writer) map[string]float64 {
	lat, rate := mergeLogs(r.queries)
	tq := tailQuantile(len(lat))
	m := map[string]float64{
		"setup_s":       median(r.setup),
		"query_p50_ms":  quantileMS(lat, 0.5),
		"query_p99_ms":  quantileMS(lat, tq),
		"queries_per_s": rate,
		"heap_mb":       median(r.heapMB),
	}
	for _, d := range endToEnd {
		fmt.Fprintf(w, "%-32s %14.6f %s\n", d.name, m[d.name], d.unit)
	}
	fmt.Fprintf(w, "%-32s %14d (tail quantile p%.2f; %d setups)\n", "query_samples", len(lat), 100*tq, len(r.setup))
	byKey := map[string][]time.Duration{}
	for _, o := range r.queries {
		for k, ds := range o.byKey {
			byKey[k] = append(byKey[k], ds...)
		}
	}
	keys := slices.Sorted(maps.Keys(byKey))
	for _, k := range keys {
		ds := byKey[k]
		slices.Sort(ds)
		fmt.Fprintf(w, "  query %-60.60q n=%-6d p50 %9.3f ms  p90 %9.3f ms\n", strings.Join(strings.Fields(k), " "), len(ds), quantileMS(ds, 0.5), quantileMS(ds, 0.9))
	}
	if r.mutations != nil {
		mlat, mrate := mergeLogs(r.mutations)
		mq := tailQuantile(len(mlat))
		m["mutation_p50_ms"] = quantileMS(mlat, 0.5)
		m["mutation_p99_ms"] = quantileMS(mlat, mq)
		m["mutations_per_s"] = mrate
		for _, n := range []string{"mutation_p50_ms", "mutation_p99_ms"} {
			fmt.Fprintf(w, "%-32s %14.6f ms\n", n, m[n])
		}
		fmt.Fprintf(w, "%-32s %14.6f 1/s\n", "mutations_per_s", mrate)
		fmt.Fprintf(w, "%-32s %14d (tail quantile p%.2f)\n", "mutation_samples", len(mlat), 100*mq)
	}
	return m
}

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := &config{}
	var seconds float64
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: adhoc-plan|views-exec|ingest-maintain|service-http")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fs.Float64Var(&seconds, "seconds", 10, "time the closed loops run")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting the per-layer metrics")
	fs.StringVar(&cfg.traceOut, "trace-out", "", "span file of a traced run (default .bench_build/perfbench/traces/<workload>-seed<n>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	cfg.seconds = time.Duration(seconds * float64(time.Second))
	cfg.trace = trace == 1
	out, err := execute(ctx, cfg, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}
