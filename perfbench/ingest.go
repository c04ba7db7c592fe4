package main

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"kaskade/internal/cost"
	"kaskade/internal/exec"
	"kaskade/internal/gql"
	"kaskade/internal/graph"
	"kaskade/internal/views"
)

// jobToJob is the maintained view: every 2-edge path from a job to a
// job (job writes a file that another job reads), one view edge per
// path.
var jobToJob = views.KHopConnector{SrcType: "Job", DstType: "Job", K: 2}

// The ingest queries: 2-hop paths counted on the base graph, whose
// recent edges sit in the delta overlay, and edges counted on the
// maintained view. Both must equal the script's own count.
const (
	ingestBaseQuery = `MATCH (j:Job)-[:WRITES_TO]->(f:File)-[:IS_READ_BY]->(k:Job) RETURN COUNT(*) AS n`
	ingestViewQuery = `MATCH (x:Job)-[e:CONN_2HOP_Job_Job]->(y:Job) RETURN COUNT(*) AS n`
)

// In each script batch a new job reads ingestReads existing files and
// writes ingestWrites new ones, then each ingest query runs once.
const (
	ingestReads  = 3
	ingestWrites = 2
)

// runIngest is the ingest-maintain workload. Each script starts from a
// freshly generated, frozen filtered prov graph with the 2-hop
// connector maintained over it, and runs a fixed, seed-generated number
// of mutation batches, so the graph grows by the same amount however
// fast the mutation path is. Whole scripts repeat until the run's time
// is spent. A traced run alternates untraced and traced scripts.
func runIngest(ctx context.Context, cfg *config, res *result) error {
	res.queries = newLogs(1)
	res.mutations = newLogs(1)
	if cfg.trace {
		res.traced = newLogs(1)
	}
	var spent time.Duration
	for script := 0; spent < cfg.seconds || (cfg.trace && script < 2); script++ {
		traced := cfg.trace && script%2 == 1
		s, err := newIngestScript(cfg, res, script, traced)
		if err != nil {
			return fmt.Errorf("script %d: %w", script, err)
		}
		start := time.Now()
		err = s.run(ctx)
		spent += time.Since(start)
		if err != nil {
			return fmt.Errorf("script %d: %w", script, err)
		}
	}
	return nil
}

type ingestScript struct {
	cfg     *config
	res     *result
	id      int
	rng     *rand.Rand
	m       *views.MaintainedConnector
	queries *opLog
	muts    *opLog
	tr      *tracer
	ls      *layerStats
	req     int64

	files []graph.VertexID // every file, base IDs
	paths int64            // 2-hop paths the base graph holds
	nMuts int
}

// newIngestScript generates script id's input and sets it up; set-up
// time is recorded for untraced scripts only.
func newIngestScript(cfg *config, res *result, id int, traced bool) (*ingestScript, error) {
	seed := subSeed(cfg.seed, id)
	own := liveHeapMB()
	g, err := provInput(pick(cfg, provSize{200, 500, 8}, provSize{40, 100, 2}), seed)
	if err != nil {
		return nil, err
	}
	s := &ingestScript{cfg: cfg, res: res, id: id, rng: rand.New(rand.NewSource(seed)),
		queries: res.queries[0], muts: res.mutations[0]}
	if traced {
		s.tr, s.ls, s.queries, s.muts = res.tr, res.layers, res.traced[0], &res.tracedMuts
	}
	start := settle()
	root := s.tr.begin("core.setup", 0, -int64(id+1))
	sp := s.tr.begin("graph.freeze", root, -int64(id+1))
	g.Freeze()
	s.ls.add("graph.freeze_ms", ms(s.tr.end(sp)))
	sp = s.tr.begin("views.materialize", root, -int64(id+1))
	s.m, err = views.NewMaintainedConnector(jobToJob, g)
	if err == nil {
		s.m.View().Freeze()
	}
	s.ls.add("views.materialize_ms", ms(s.tr.end(sp)))
	s.tr.end(root)
	if err != nil {
		return nil, fmt.Errorf("materializing %s: %w", jobToJob.Name(), err)
	}
	if !traced {
		res.setup = append(res.setup, time.Since(start).Seconds())
		res.heapMB = append(res.heapMB, liveHeapMB()-own)
	}
	s.ls.add("workload.view_space_ratio", float64(s.m.View().NumEdges())/float64(g.NumEdges()))
	s.files = slices.Clone(g.VerticesOfType("File"))
	s.paths = int64(s.m.View().NumEdges())
	return s, nil
}

func (s *ingestScript) run(ctx context.Context) error {
	sp := s.tr.begin("gql.parse", 0, 0)
	baseQ, err := gql.Parse(ingestBaseQuery)
	s.ls.add("gql.parse_us", us(s.tr.end(sp)))
	if err != nil {
		return err
	}
	viewQ, err := gql.Parse(ingestViewQuery)
	if err != nil {
		return err
	}
	base, view := s.m.Base(), s.m.View()
	viewEdges0 := view.NumEdges()
	batches := pick(s.cfg, 400, 30)
	for b := range batches {
		s.req++
		if err := s.batch(b); err != nil {
			return err
		}
		if fz := base.CachedFrozen(); fz != nil {
			_, te := fz.TailSize()
			s.ls.add("graph.tail_edges", float64(te))
		}
		if err := s.query(ctx, base, baseQ, ingestBaseQuery, true); err != nil {
			return err
		}
		if err := s.query(ctx, view, viewQ, ingestViewQuery, false); err != nil {
			return err
		}
	}
	s.ls.add("graph.compactions", float64(base.Compactions()+view.Compactions()))
	s.ls.add("views.view_edges_per_mutation", float64(view.NumEdges()-viewEdges0)/float64(s.nMuts))
	if s.ls != nil {
		s.ls.planArm("ingest 2-hop", true, predictedSpeedup(base, view, baseQ, viewQ))
	}
	// The maintained view must equal a fresh materialization of the
	// grown base graph.
	fresh, err := jobToJob.Materialize(base)
	if err != nil {
		return fmt.Errorf("rematerializing %s: %w", jobToJob.Name(), err)
	}
	got, want := viewFingerprint(view), viewFingerprint(fresh)
	s.res.checks.check(slices.Equal(got, want), fmt.Sprintf("script %d: maintained view has %d edges, fresh materialization %d (or they differ)", s.id, len(got), len(want)))
	return nil
}

// batch runs one batch's mutations through the maintainer.
func (s *ingestScript) batch(b int) error {
	job, err := s.mutate(func() (graph.VertexID, error) {
		return s.m.AddVertex("Job", graph.Properties{
			"name":         fmt.Sprintf("s%d.job%d", s.id, b),
			"CPU":          int64(1 + s.rng.Intn(1000)),
			"pipelineName": fmt.Sprintf("pipeline%d", s.rng.Intn(50)),
		})
	})
	if err != nil {
		return err
	}
	for range ingestReads {
		f := s.files[s.rng.Intn(len(s.files))]
		if _, err := s.mutate(func() (graph.VertexID, error) {
			_, err := s.m.AddEdge(f, job, "IS_READ_BY", nil)
			return 0, err
		}); err != nil {
			return err
		}
		// Every file has exactly one writer, so each read adds one path.
		s.paths++
	}
	for k := range ingestWrites {
		f, err := s.mutate(func() (graph.VertexID, error) {
			return s.m.AddVertex("File", graph.Properties{
				"name": fmt.Sprintf("s%d.job%d.file%d", s.id, b, k),
				"size": int64(1 + s.rng.Intn(1_000_000)),
			})
		})
		if err != nil {
			return err
		}
		if _, err := s.mutate(func() (graph.VertexID, error) {
			_, err := s.m.AddEdge(job, f, "WRITES_TO", nil)
			return 0, err
		}); err != nil {
			return err
		}
		s.files = append(s.files, f)
	}
	return nil
}

// mutate times one maintainer call, noting whether a compaction of the
// base or view graph ran inside it.
func (s *ingestScript) mutate(call func() (graph.VertexID, error)) (graph.VertexID, error) {
	before := s.m.Base().Compactions() + s.m.View().Compactions()
	sp := s.tr.begin("views.maintain", 0, s.req)
	start := time.Now()
	id, err := call()
	d := time.Since(start)
	s.tr.end(sp)
	s.nMuts++
	if err != nil {
		s.muts.done(d, false, fmt.Sprintf("script %d mutation %d: %v", s.id, s.nMuts, err))
		return id, err
	}
	s.muts.done(d, true, "")
	s.ls.add("views.maintain_us", us(d))
	if after := s.m.Base().Compactions() + s.m.View().Compactions(); after != before {
		s.ls.add("graph.compaction_mutation_ms", ms(d))
	}
	return id, nil
}

// query runs one count query and checks it against the script's count.
func (s *ingestScript) query(ctx context.Context, g *graph.Graph, q gql.Query, text string, noviews bool) error {
	reads := graph.OverlayReads()
	var (
		res *exec.Result
		d   time.Duration
		err error
	)
	if s.tr == nil {
		start := time.Now()
		res, err = (&exec.Executor{G: g}).ExecuteContext(ctx, q)
		d = time.Since(start)
	} else {
		res, d, err = executeTraced(ctx, g, q, 0, s.tr, 0, s.req, s.ls)
		s.ls.add("graph.overlay_reads_per_query", float64(graph.OverlayReads()-reads))
		s.ls.timeArm("ingest 2-hop", noviews, d)
		if noviews {
			s.ls.add("exec.noviews_execute_ms", ms(d))
		}
	}
	if err != nil {
		s.queries.done(d, false, fmt.Sprintf("script %d %q: %v", s.id, text, err))
		return nil
	}
	var n any
	if len(res.Rows) == 1 && len(res.Rows[0]) == 1 {
		n = res.Rows[0][0]
	}
	s.queries.done(d, n == s.paths, fmt.Sprintf("script %d %q = %v, want %d", s.id, text, n, s.paths))
	return nil
}

// predictedSpeedup is the cost model's estimate for answering the 2-hop
// count from the view instead of the base graph.
func predictedSpeedup(base, view *graph.Graph, baseQ, viewQ gql.Query) float64 {
	bc, err1 := cost.EvalCost(baseQ, cost.Collect(base), base.Schema(), cost.DefaultAlpha)
	vc, err2 := cost.EvalCost(viewQ, cost.Collect(view), view.Schema(), cost.DefaultAlpha)
	if err1 != nil || err2 != nil || vc <= 0 {
		return 0
	}
	return bc / vc
}

// viewFingerprint is a connector view's edge multiset, endpoints by
// name, independent of insertion order.
func viewFingerprint(g *graph.Graph) []string {
	var out []string
	g.EachEdge(func(e *graph.Edge) {
		out = append(out, fmt.Sprintf("%v->%v ts=%v hops=%v",
			g.Vertex(e.From).Prop("name"), g.Vertex(e.To).Prop("name"), e.Prop("ts"), e.Prop("hops")))
	})
	slices.Sort(out)
	return out
}
