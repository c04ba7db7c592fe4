package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"kaskade/internal/core"
	"kaskade/internal/exec"
	"kaskade/internal/gql"
	"kaskade/internal/workload"
)

// adhocTemplates are cheap query shapes. Each query draws its literal
// from the seed, so shapes repeat while texts rarely do: planning
// dominates, and a cache keyed by text would not help.
var adhocTemplates = []struct {
	text   string
	lo, hi int // literal range [lo, hi)
}{
	{`MATCH (j:Job)-[:WRITES_TO]->(f:File) WHERE j.CPU > %d RETURN COUNT(*) AS n`, 1, 1000},
	{`MATCH (f:File)-[:IS_READ_BY]->(j:Job) WHERE f.size < %d RETURN j.pipelineName AS p, COUNT(f) AS n`, 1, 1_000_000},
	{`MATCH (j:Job) WHERE j.pipelineName = 'pipeline%d' RETURN COUNT(j) AS n, SUM(j.CPU) AS cpu`, 0, 50},
	{`MATCH (x:Job)-[p*2..2]->(y:Job) WHERE x.CPU > %d RETURN x, y`, 900, 1000},
	{`MATCH (x:Job)-[p*2..2]->(y:Job) WHERE y.CPU < %d RETURN COUNT(*) AS n`, 1, 100},
}

// runAdhoc is the adhoc-plan workload: ad-hoc texts through
// System.QueryContext on a small filtered prov graph with views
// adopted, one client, sequential execution.
func runAdhoc(ctx context.Context, cfg *config, res *result) error {
	return runRounds(ctx, cfg, res, 1, 16, func(r int) (round, time.Duration, error) {
		seed := subSeed(cfg.seed, r)
		g, err := provInput(pick(cfg, provSize{200, 500, 8}, provSize{40, 100, 2}), seed)
		if err != nil {
			return nil, 0, err
		}
		start := settle()
		sys, err := setupEngine(g, 0, res.tr, res.layers, -int64(r+1))
		if err != nil {
			return nil, 0, err
		}
		d := time.Since(start)
		return &adhocRound{sys: sys, rng: rand.New(rand.NewSource(seed)), texts: map[string]*textCheck{}}, d, nil
	})
}

type adhocRound struct {
	sys   *core.System
	rng   *rand.Rand
	req   int64
	texts map[string]*textCheck
}

// textCheck is the answer one text gave on its first execution.
type textCheck struct {
	want digest
	n    int // executions
}

func (a *adhocRound) drive(ctx context.Context, deadline time.Time, logs []*opLog, tr *tracer, ls *layerStats) error {
	log := logs[0]
	for time.Now().Before(deadline) {
		tpl := adhocTemplates[a.rng.Intn(len(adhocTemplates))]
		text := fmt.Sprintf(tpl.text, tpl.lo+a.rng.Intn(tpl.hi-tpl.lo))
		key := tpl.text
		a.req++
		var (
			res   *exec.Result
			err   error
			q     gql.Query
			plan  *workload.Plan
			dExec time.Duration
		)
		start := time.Now()
		if tr == nil {
			res, err = a.sys.QueryContext(ctx, text)
		} else {
			root := tr.begin("core.query", 0, a.req)
			q, plan, err = planTraced(a.sys.Catalog(), text, tr, root, a.req, ls)
			if err == nil {
				res, dExec, err = executeTraced(ctx, plan.Graph, plan.Query, 0, tr, root, a.req, ls)
			}
			tr.end(root)
		}
		d := time.Since(start)
		if err != nil {
			log.done(d, false, fmt.Sprintf("%q: %v", text, err))
			continue
		}
		got := digestOf(res)
		tc := a.texts[text]
		if tc == nil {
			tc = &textCheck{want: got}
			a.texts[text] = tc
		}
		tc.n++
		log.done(d, got == tc.want, fmt.Sprintf("%q: %s, earlier %s", text, got, tc.want))
		log.keyed(key, d)
		if tr != nil {
			ls.timeArm(key, false, dExec)
			if err := planSideCalls(a.sys.Catalog(), q, plan, tr, a.req, ls, key); err != nil {
				return err
			}
			if _, err := executeNoViews(ctx, a.sys.Graph(), q, 0, tr, a.req, ls, key); err != nil {
				return err
			}
		}
	}
	return nil
}

// finish compares every text's answer with its WithoutViews answer; a
// mismatch fails every execution of the text.
func (a *adhocRound) finish(ctx context.Context, chk *opLog) error {
	for text, tc := range a.texts {
		res, err := a.sys.QueryContext(ctx, text, core.WithoutViews())
		if err != nil {
			return fmt.Errorf("no-views reference for %q: %w", text, err)
		}
		if got := digestOf(res); got != tc.want {
			for range tc.n {
				chk.fail(fmt.Sprintf("%q: %s with views, %s without", text, tc.want, got))
			}
		}
	}
	return nil
}
