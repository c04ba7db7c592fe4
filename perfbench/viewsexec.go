package main

import (
	"context"
	"fmt"
	"time"

	"kaskade/internal/core"
	"kaskade/internal/exec"
	"kaskade/internal/gql"
)

// runViewsExec is the views-exec workload: the Table IV statements,
// prepared once, executed round-robin on a larger filtered prov graph
// with views adopted, one client, each query on workers() threads.
func runViewsExec(ctx context.Context, cfg *config, res *result) error {
	return runRounds(ctx, cfg, res, 1, 16, func(r int) (round, time.Duration, error) {
		seed := subSeed(cfg.seed, r)
		g, err := provInput(pick(cfg, provSize{600, 1500, 16}, provSize{40, 100, 2}), seed)
		if err != nil {
			return nil, 0, err
		}
		start := settle()
		sys, err := setupEngine(g, workers(), res.tr, res.layers, -int64(r+1))
		if err != nil {
			return nil, 0, err
		}
		v := &viewsRound{sys: sys, next: int(seed % int64(len(tableIVQueries)))}
		for _, text := range tableIVQueries {
			stmt, err := sys.Prepare(text, core.WithWorkers(workers()))
			if err != nil {
				return nil, 0, err
			}
			v.stmts = append(v.stmts, stmt)
		}
		d := time.Since(start)
		// The reference answers come from the base graph, untimed.
		for _, text := range tableIVQueries {
			q, err := gql.Parse(text)
			if err != nil {
				return nil, 0, err
			}
			ref, err := sys.QueryContext(ctx, text, core.WithoutViews())
			if err != nil {
				return nil, 0, fmt.Errorf("no-views reference for %q: %w", text, err)
			}
			v.qs = append(v.qs, q)
			v.want = append(v.want, digestOf(ref))
		}
		return v, d, nil
	})
}

type viewsRound struct {
	sys     *core.System
	stmts   []*core.PreparedQuery
	qs      []gql.Query
	want    []digest // WithoutViews answers
	next    int
	req     int64
	planned bool // the traced plan side calls ran
}

func (v *viewsRound) drive(ctx context.Context, deadline time.Time, logs []*opLog, tr *tracer, ls *layerStats) error {
	log := logs[0]
	if tr != nil && !v.planned {
		// Statements are planned once per catalog epoch, so the plan
		// layers are measured once per statement.
		v.planned = true
		for i, text := range tableIVQueries {
			v.req++
			q, plan, err := planTraced(v.sys.Catalog(), text, tr, 0, v.req, ls)
			if err != nil {
				return err
			}
			if err := planSideCalls(v.sys.Catalog(), q, plan, tr, v.req, ls, tableIVQueries[i]); err != nil {
				return err
			}
		}
	}
	for time.Now().Before(deadline) {
		i := v.next % len(v.stmts)
		v.next++
		v.req++
		var (
			res   *exec.Result
			err   error
			dExec time.Duration
		)
		start := time.Now()
		if tr == nil {
			res, err = v.stmts[i].ExecContext(ctx)
		} else {
			root := tr.begin("core.exec_prepared", 0, v.req)
			sp := tr.begin("core.plan", root, v.req)
			plan, perr := v.stmts[i].Plan()
			tr.end(sp)
			err = perr
			if err == nil {
				res, dExec, err = executeTraced(ctx, plan.Graph, plan.Query, workers(), tr, root, v.req, ls)
			}
			tr.end(root)
		}
		d := time.Since(start)
		if err != nil {
			log.done(d, false, fmt.Sprintf("%q: %v", tableIVQueries[i], err))
			continue
		}
		got := digestOf(res)
		log.done(d, got == v.want[i], fmt.Sprintf("%q: %s with views, %s without", tableIVQueries[i], got, v.want[i]))
		log.keyed(tableIVQueries[i], d)
		if tr != nil {
			ls.timeArm(tableIVQueries[i], false, dExec)
			if _, err := executeNoViews(ctx, v.sys.Graph(), v.qs[i], workers(), tr, v.req, ls, tableIVQueries[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

func (v *viewsRound) finish(context.Context, *opLog) error { return nil }
