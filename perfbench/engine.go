package main

import (
	"context"
	"fmt"
	"maps"
	"runtime"
	"time"

	"kaskade/internal/core"
	"kaskade/internal/cost"
	"kaskade/internal/datagen"
	"kaskade/internal/enum"
	"kaskade/internal/gql"
	"kaskade/internal/graph"
	"kaskade/internal/views"
	"kaskade/internal/workload"
)

// blastRadius is Q1 of Table IV, the paper's Listing 1.
const blastRadius = `SELECT A.pipelineName, AVG(T_CPU) FROM (
  SELECT A, SUM(B.CPU) AS T_CPU FROM (
    MATCH (q_j1:Job)-[:WRITES_TO]->(q_f1:File)
          (q_f1:File)-[r*0..8]->(q_f2:File)
          (q_f2:File)-[:IS_READ_BY]->(q_j2:Job)
    RETURN q_j1 AS A, q_j2 AS B
  ) GROUP BY A, B
) GROUP BY A.pipelineName`

// tableIVQueries are the Table IV shapes the engine runs as gql. They
// are views-exec's statements and, for every workload that adopts
// views, the workload view selection is run over.
var tableIVQueries = []string{
	blastRadius,
	`MATCH (x:Job)-[p*2..2]->(y:Job) RETURN x, y`,
	`MATCH (x:Job)-[p*2..4]->(y:Job) RETURN x, y`,
	`MATCH (x:Job)-[p*2..4]->(y:Job) RETURN x.pipelineName AS p, COUNT(y) AS n`,
	`MATCH (j:Job)-[:WRITES_TO]->(f:File) WHERE j.CPU > 500 RETURN j.pipelineName AS p, COUNT(f) AS n`,
	`MATCH ()-[r]->() RETURN COUNT(*) AS n`,
	`MATCH (v) RETURN COUNT(*) AS n`,
}

// selectionBudget is the view-selection space budget in edges; it is
// large enough for the 2-hop Job-to-Job connector to be chosen.
const selectionBudget = 1_000_000

// subSeed derives round r's input seed from the run's seed. The result
// is positive and never 0, which datagen reads as "default seed".
func subSeed(seed int64, r int) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(r+1)*0xBF58476D1CE4E5B9
	x ^= x >> 31
	x *= 0x94D049BB133111EB
	x ^= x >> 29
	return int64(x>>2) | 1
}

// provSize sizes a filtered prov input: total jobs and files, and the
// number of independent lineages they are split over.
type provSize struct{ jobs, files, parts int }

// maxReaders caps how many jobs read one file. datagen's default of 60
// suits its 5,000-file graph; at the few hundred files per lineage used
// here it lets a single file's readers decide the blast radius's cost,
// which then varies several-fold from seed to seed.
const maxReaders = 10

// provInput generates the filtered prov graph of the paper's
// evaluation, jobs and files only, as the union of sz.parts independent
// lineages that share its jobs and files equally. Each
// lineage has its own power-law hub writer, so one hub does not decide
// the cost of a whole input. Vertex names get a per-lineage prefix to
// stay unique.
func provInput(sz provSize, seed int64) (*graph.Graph, error) {
	var out *graph.Graph
	for p := range sz.parts {
		cfg := datagen.DefaultProvConfig()
		cfg.Jobs, cfg.Files = max(2, sz.jobs/sz.parts), max(2, sz.files/sz.parts)
		// Satellite vertices are filtered out below; keep them few.
		cfg.TasksPerJob, cfg.Machines, cfg.Users = 1, 1, 1
		cfg.MaxReads = maxReaders
		cfg.Seed = subSeed(seed, p)
		raw, err := datagen.Prov(cfg)
		if err != nil {
			return nil, err
		}
		g, err := views.VertexInclusionSummarizer{Types: []string{"Job", "File"}}.Materialize(raw)
		if err != nil {
			return nil, err
		}
		if out == nil {
			out = graph.NewGraph(g.Schema())
		}
		offset := graph.VertexID(out.NumVertices())
		for i := range g.NumVertices() {
			v := g.Vertex(graph.VertexID(i))
			props := maps.Clone(v.Props)
			props["name"] = fmt.Sprintf("l%d.%v", p, v.Props["name"])
			if _, err := out.AddVertex(v.Type, props); err != nil {
				return nil, err
			}
		}
		for i := range g.NumEdges() {
			e := g.Edge(graph.EdgeID(i))
			if _, err := out.AddEdge(offset+e.From, offset+e.To, e.Type, e.Props); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// setupEngine turns a generated graph into a ready System: freeze, view
// selection over the Table IV queries, and materialization.
func setupEngine(g *graph.Graph, parallelism int, tr *tracer, ls *layerStats, req int64) (*core.System, error) {
	root := tr.begin("core.setup", 0, req)
	defer tr.end(root)
	sp := tr.begin("graph.freeze", root, req)
	g.Freeze()
	ls.add("graph.freeze_ms", ms(tr.end(sp)))
	sys := core.New(g)
	sys.Parallelism = parallelism
	sp = tr.begin("workload.select", root, req)
	sel, err := sys.SelectViews(tableIVQueries, selectionBudget)
	ls.add("workload.select_ms", ms(tr.end(sp)))
	if err != nil {
		return nil, fmt.Errorf("selecting views: %w", err)
	}
	sp = tr.begin("views.materialize", root, req)
	err = sys.AdoptSelection(sel)
	ls.add("views.materialize_ms", ms(tr.end(sp)))
	if err != nil {
		return nil, fmt.Errorf("materializing views: %w", err)
	}
	ls.add("workload.view_space_ratio", float64(sys.Catalog().TotalEdges())/float64(g.NumEdges()))
	return sys, nil
}

// planTraced parses and rewrites text in spans under parent, the way
// System.QueryContext does before it executes.
func planTraced(cat *workload.Catalog, text string, tr *tracer, parent int, req int64, ls *layerStats) (gql.Query, *workload.Plan, error) {
	sp := tr.begin("gql.parse", parent, req)
	q, err := gql.Parse(text)
	ls.add("gql.parse_us", us(tr.end(sp)))
	if err != nil {
		return nil, nil, err
	}
	sp = tr.begin("workload.rewrite", parent, req)
	plan, err := cat.Rewrite(q)
	ls.add("workload.rewrite_us", us(tr.end(sp)))
	if err != nil {
		return nil, nil, err
	}
	ls.add("workload.rewrite_hit", b2f(plan.ViewName != ""))
	return q, plan, nil
}

// planSideCalls measures what a plan decision is made of, outside any
// request: view enumeration for q on its own, and the cost model's base
// cost against the chosen plan's cost.
func planSideCalls(cat *workload.Catalog, q gql.Query, plan *workload.Plan, tr *tracer, req int64, ls *layerStats, key string) error {
	sp := tr.begin("enum.enumerate", 0, req)
	er, err := (&enum.Enumerator{Schema: cat.Schema}).Enumerate(q)
	ls.add("enum.enumerate_us", us(tr.end(sp)))
	if err != nil {
		return fmt.Errorf("enumerating views: %w", err)
	}
	ls.add("enum.candidates", float64(len(er.Candidates)))
	alpha := cat.Alpha
	if alpha == 0 {
		alpha = cost.DefaultAlpha
	}
	sp = tr.begin("cost.eval", 0, req)
	baseCost, err := cost.EvalCost(q, cat.BaseProps, cat.Schema, alpha)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("costing base plan: %w", err)
	}
	predicted := 0.0
	if plan.Cost > 0 {
		predicted = baseCost / plan.Cost
	}
	ls.planArm(key, plan.ViewName != "", predicted)
	return nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// round is one freshly generated and set-up input of a time-bounded
// workload.
type round interface {
	// drive runs the closed loop until deadline, one opLog per client.
	// tr and ls are nil in untraced phases.
	drive(ctx context.Context, deadline time.Time, logs []*opLog, tr *tracer, ls *layerStats) error
	// finish runs the checks that need the whole round, counting
	// failures in chk, and releases the round.
	finish(ctx context.Context, chk *opLog) error
}

// runRounds drives the given number of fresh inputs for equal shares of the
// run's time. setup generates round r's input and returns the ready
// round with the time its set-up took (input generation excluded). In a
// traced run each round spends half its share untraced, for the
// end-to-end baseline the tracing overhead is measured against, and
// half traced.
func runRounds(ctx context.Context, cfg *config, res *result, clients, rounds int, setup func(r int) (round, time.Duration, error)) error {
	res.queries = newLogs(clients)
	if cfg.trace {
		res.traced = newLogs(clients)
	}
	if cfg.tiny {
		rounds = 2
	}
	share := cfg.seconds / time.Duration(rounds)
	for r := range rounds {
		own := liveHeapMB()
		rd, d, err := setup(r)
		if err != nil {
			return fmt.Errorf("round %d: %w", r, err)
		}
		res.setup = append(res.setup, d.Seconds())
		res.heapMB = append(res.heapMB, liveHeapMB()-own)
		untraced := share
		if cfg.trace {
			untraced = share / 2
		}
		err = rd.drive(ctx, time.Now().Add(untraced), res.queries, nil, nil)
		if err == nil && cfg.trace {
			runtime.GC()
			err = rd.drive(ctx, time.Now().Add(share-untraced), res.traced, res.tr, res.layers)
		}
		if ferr := rd.finish(ctx, &res.checks); err == nil {
			err = ferr
		}
		if err != nil {
			return fmt.Errorf("round %d: %w", r, err)
		}
	}
	return nil
}
