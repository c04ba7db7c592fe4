package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"kaskade/internal/core"
	"kaskade/internal/exec"
	"kaskade/internal/gql"
	"kaskade/internal/server"
)

// serviceMix is kaskade-loadgen's default three-query mix plus one
// row-heavy projection.
var serviceMix = []string{
	`MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN COUNT(*) AS n`,
	`SELECT A, COUNT(B) FROM (
	   MATCH (q_j:Job)-[:WRITES_TO]->(q_f:File) RETURN q_j AS A, q_f AS B
	 ) GROUP BY A`,
	`MATCH (x:Job)-[p*2..2]->(y:Job) RETURN COUNT(*) AS n`,
	`MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN j, f.name AS file, f.size AS size`,
}

// serviceCycle is the order each session sends serviceMix in. The
// cheapest query goes twice, so the median latency falls in the middle
// of one query's latencies rather than on the edge between two.
var serviceCycle = []int{0, 1, 2, 3, 0}

// runService is the service-http workload: the in-process server with
// its response cache off, behind a loopback listener, serving
// workers() sessions that each send the mix in a closed loop. The
// System executes each request sequentially.
func runService(ctx context.Context, cfg *config, res *result) error {
	return runRounds(ctx, cfg, res, workers(), 16, func(r int) (round, time.Duration, error) {
		seed := subSeed(cfg.seed, r)
		g, err := provInput(pick(cfg, provSize{500, 1250, 8}, provSize{40, 100, 2}), seed)
		if err != nil {
			return nil, 0, err
		}
		start := settle()
		sys, err := setupEngine(g, 0, res.tr, res.layers, -int64(r+1))
		if err != nil {
			return nil, 0, err
		}
		s, err := startService(ctx, sys)
		if err != nil {
			return nil, 0, err
		}
		d := time.Since(start)
		if err := s.references(ctx, res.checks.check); err != nil {
			_ = s.finish(ctx, nil) // the references error is the one to report
			return nil, 0, err
		}
		return s, d, nil
	})
}

type serviceRound struct {
	sys    *core.System
	url    string
	client *http.Client
	stop   context.CancelFunc
	served chan error
	req    atomic.Int64

	// Per mix entry: the parsed query, an in-process statement, and the
	// rows and row count the server must send.
	qs       []gql.Query
	inproc   []*core.PreparedQuery
	wantRows [][]byte
	wantN    []int
	planned  bool
}

// startService starts the server on a loopback port.
func startService(ctx context.Context, sys *core.System) (*serviceRound, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := server.New(sys, server.Config{CacheTTL: 0})
	ctx, stop := context.WithCancel(ctx)
	s := &serviceRound{
		sys:    sys,
		url:    "http://" + l.Addr().String() + "/v1/query",
		stop:   stop,
		served: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     workers(),
			MaxIdleConnsPerHost: workers(),
		}},
	}
	go func() { s.served <- srv.Serve(ctx, l, 5*time.Second) }()
	return s, nil
}

// references computes, untimed, what the server must answer: the
// in-process rows of each text, which must also equal the text's
// WithoutViews answer.
func (s *serviceRound) references(ctx context.Context, check func(ok bool, problem string)) error {
	for _, text := range serviceMix {
		q, err := gql.Parse(text)
		if err != nil {
			return err
		}
		stmt, err := s.sys.Prepare(text)
		if err != nil {
			return err
		}
		res, err := stmt.ExecContext(ctx)
		if err != nil {
			return fmt.Errorf("in-process reference for %q: %w", text, err)
		}
		ref, err := s.sys.QueryContext(ctx, text, core.WithoutViews())
		if err != nil {
			return fmt.Errorf("no-views reference for %q: %w", text, err)
		}
		got, want := digestOf(res), digestOf(ref)
		check(got == want, fmt.Sprintf("%q: %s in process, %s without views", text, got, want))
		rows := make([][]any, len(res.Rows))
		for i, row := range res.Rows {
			rows[i] = make([]any, len(row))
			for j, v := range row {
				rows[i][j] = wireValue(v)
			}
		}
		b, err := json.Marshal(rows)
		if err != nil {
			return err
		}
		s.qs = append(s.qs, q)
		s.inproc = append(s.inproc, stmt)
		s.wantRows = append(s.wantRows, b)
		s.wantN = append(s.wantN, len(res.Rows))
	}
	return nil
}

// wireValue is the JSON form of a result value on the server's wire:
// scalars as themselves, graph references and non-finite floats in
// their display form.
func wireValue(v exec.Value) any {
	switch x := v.(type) {
	case nil, int64, string, bool:
		return x
	case float64:
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return exec.FormatValue(x)
		}
		return x
	default:
		return exec.FormatValue(v)
	}
}

func (s *serviceRound) drive(ctx context.Context, deadline time.Time, logs []*opLog, tr *tracer, ls *layerStats) error {
	if tr != nil && !s.planned {
		s.planned = true
		for i, text := range serviceMix {
			req := s.req.Add(1)
			q, plan, err := planTraced(s.sys.Catalog(), text, tr, 0, req, ls)
			if err != nil {
				return err
			}
			if err := planSideCalls(s.sys.Catalog(), q, plan, tr, req, ls, serviceMix[i]); err != nil {
				return err
			}
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, len(logs))
	for c, log := range logs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[c] = s.session(ctx, c, deadline, log, tr, ls)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// session is one client session's closed loop.
func (s *serviceRound) session(ctx context.Context, c int, deadline time.Time, log *opLog, tr *tracer, ls *layerStats) error {
	session := ""
	for n := c; time.Now().Before(deadline); n++ {
		i := serviceCycle[n%len(serviceCycle)]
		req := s.req.Add(1)
		body, _ := json.Marshal(map[string]string{"query": serviceMix[i]}) // a string map always encodes
		hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, s.url, bytes.NewReader(body))
		if err != nil {
			return err
		}
		if session != "" {
			hreq.Header.Set("X-Kaskade-Session", session)
		}
		sp := tr.begin("server.request", 0, req)
		start := time.Now()
		resp, err := s.client.Do(hreq)
		var payload []byte
		if err == nil {
			payload, err = io.ReadAll(resp.Body)
			resp.Body.Close()
		}
		d := time.Since(start)
		tr.end(sp)
		if err != nil {
			log.done(d, false, fmt.Sprintf("%q: %v", serviceMix[i], err))
			continue
		}
		if id := resp.Header.Get("X-Kaskade-Session"); id != "" {
			session = id
		}
		rows, ok, problem := s.checkResponse(i, resp, payload)
		log.done(d, ok, problem)
		log.keyed(serviceMix[i], d)
		if tr == nil {
			continue
		}
		ls.add("server.request_ms", ms(d))
		ls.add("server.prepared_hit", b2f(resp.Header.Get("X-Kaskade-Prepared") == "hit"))
		ls.add("server.cache_hit", b2f(resp.Header.Get("X-Kaskade-Cache") == "hit"))
		ls.add("server.rejected", b2f(resp.StatusCode == http.StatusTooManyRequests))
		ls.add("server.bytes", float64(len(payload)))
		ls.add("server.rows", float64(rows))
		// The in-process arm of the same text: HTTP minus this is the
		// service boundary's own cost.
		plan, err := s.inproc[i].Plan()
		if err != nil {
			return err
		}
		_, dIn, err := executeTraced(ctx, plan.Graph, plan.Query, 0, tr, 0, req, ls)
		if err != nil {
			return err
		}
		ls.add("server.overhead_ms", ms(d-dIn))
		ls.timeArm(serviceMix[i], false, dIn)
		if _, err := executeNoViews(ctx, s.sys.Graph(), s.qs[i], 0, tr, req, ls, serviceMix[i]); err != nil {
			return err
		}
	}
	return nil
}

// checkResponse compares one response with the in-process answer and
// returns its row count.
func (s *serviceRound) checkResponse(i int, resp *http.Response, payload []byte) (rows int, ok bool, problem string) {
	if resp.StatusCode != http.StatusOK {
		return 0, false, fmt.Sprintf("%q: HTTP %d: %.200s", serviceMix[i], resp.StatusCode, payload)
	}
	var body struct {
		Rows     json.RawMessage `json:"rows"`
		RowCount *int            `json:"row_count"`
		Error    *string         `json:"error"`
	}
	if err := json.Unmarshal(payload, &body); err != nil {
		return 0, false, fmt.Sprintf("%q: undecodable body: %v", serviceMix[i], err)
	}
	switch {
	case body.Error != nil:
		return 0, false, fmt.Sprintf("%q: error after rows: %s", serviceMix[i], *body.Error)
	case body.RowCount == nil || *body.RowCount != s.wantN[i]:
		return 0, false, fmt.Sprintf("%q: row_count %v, want %d", serviceMix[i], body.RowCount, s.wantN[i])
	case !bytes.Equal(body.Rows, s.wantRows[i]):
		return 0, false, fmt.Sprintf("%q: HTTP rows differ from the in-process rows", serviceMix[i])
	}
	return *body.RowCount, true, ""
}

// finish shuts the server down and waits for it to drain.
func (s *serviceRound) finish(context.Context, *opLog) error {
	s.stop()
	err := <-s.served
	s.client.CloseIdleConnections()
	return err
}
