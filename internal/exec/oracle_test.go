package exec

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"testing"

	"kaskade/internal/gql"
	"kaskade/internal/graph"
)

// The reference evaluator: a deliberately naive interpreter of the
// query language, written as the executable semantics the engine is
// checked against. It shares the parser and the expression semantics
// with the engine (evalExpr, evalWithAggs, compareValues, and the
// accumulators' add/result) but none of its storage or strategy code:
// patterns match by recursive backtracking over adjacency rows built
// from the edge log (Graph.EachEdge) with per-edge type filters and a
// used-edge map, bindings live in a plain map, properties come from the
// Vertex/Edge property bags, and grouping is a linear scan over groups
// in first-seen order. It never freezes the graph, so it reads the same
// logical graph whatever state the engine's snapshot (base CSR, delta
// tail) is in.

// oracleScope is the evaluator scope over a binding map. Property reads
// go to the property bags only.
type oracleScope map[string]Value

func (s oracleScope) lookup(name string) (Value, bool) {
	v, ok := s[name]
	return v, ok
}

func (s oracleScope) prop(base Value, key string) (Value, error) {
	switch b := base.(type) {
	case VertexRef:
		return b.G.Vertex(b.ID).Prop(key), nil
	case EdgeRef:
		return b.G.Edge(b.ID).Prop(key), nil
	case nil:
		return nil, nil
	}
	return nil, fmt.Errorf("exec: property access on %T", base)
}

func (s oracleScope) snapshot() map[string]Value { return maps.Clone(s) }

// oracleQuery evaluates a parsed query with the reference evaluator.
func oracleQuery(g *graph.Graph, q gql.Query) (*Result, error) {
	switch q := q.(type) {
	case *gql.MatchQuery:
		return oracleMatch(g, q)
	case *gql.SelectQuery:
		return oracleSelect(g, q)
	}
	return nil, fmt.Errorf("oracle: unsupported query type %T", q)
}

// oracleRun parses and evaluates src, failing the test on error.
func oracleRun(t testing.TB, g *graph.Graph, src string) *Result {
	t.Helper()
	res, err := oracleQuery(g, mustParse(t, src))
	if err != nil {
		t.Fatalf("oracle(%q): %v", src, err)
	}
	return res
}

// assertMatchesOracle runs src on the engine at workers 1 and 4 and
// requires byte-identical results to the reference evaluator.
func assertMatchesOracle(t *testing.T, g *graph.Graph, src string) {
	t.Helper()
	ref := oracleRun(t, g, src)
	for _, workers := range []int{1, 4} {
		assertSameResult(t, src, ref, runWorkers(t, g, src, workers), workers)
	}
}

// oracleMatch enumerates every match of q's patterns, filters by WHERE,
// and folds the surviving bindings through RETURN.
func oracleMatch(g *graph.Graph, q *gql.MatchQuery) (*Result, error) {
	out := newOracleFold(q.Return, nil)
	m := &oracleMatcher{g: g, env: oracleScope{}, used: map[graph.EdgeID]bool{}}
	m.out = make([][]graph.EdgeID, g.NumVertices())
	m.in = make([][]graph.EdgeID, g.NumVertices())
	g.EachEdge(func(e *graph.Edge) {
		m.out[e.From] = append(m.out[e.From], e.ID)
		m.in[e.To] = append(m.in[e.To], e.ID)
	})
	m.done = func() error {
		if q.Where != nil {
			ok, err := evalBool(q.Where, m.env)
			if err != nil || !ok {
				return err
			}
		}
		return out.add(m.env)
	}
	if err := m.patterns(q.Patterns); err != nil {
		return nil, err
	}
	return out.result()
}

// oracleSelect evaluates the subquery, then WHERE, projection or
// grouping, ORDER BY, and LIMIT over its rows.
func oracleSelect(g *graph.Graph, q *gql.SelectQuery) (*Result, error) {
	sub, err := oracleQuery(g, q.From)
	if err != nil {
		return nil, err
	}
	out := newOracleFold(q.Items, q.GroupBy)
	for _, row := range sub.Rows {
		env := oracleScope{}
		for i, c := range sub.Cols {
			env[c] = row[i]
		}
		if q.Where != nil {
			ok, err := evalBool(q.Where, env)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
		}
		if err := out.add(env); err != nil {
			return nil, err
		}
	}
	res, err := out.result()
	if err != nil {
		return nil, err
	}
	if len(q.OrderBy) > 0 {
		if err := oracleOrder(res, q.OrderBy); err != nil {
			return nil, err
		}
	}
	if q.Limit >= 0 && len(res.Rows) > q.Limit {
		res.Rows = res.Rows[:q.Limit]
	}
	return res, nil
}

// oracleOrder sorts rows stably by the ORDER BY keys, each evaluated
// over the row's output columns. Incomparable keys tie.
func oracleOrder(res *Result, order []gql.OrderItem) error {
	type keyed struct {
		row  Row
		keys []Value
	}
	rows := make([]keyed, len(res.Rows))
	for ri, row := range res.Rows {
		env := oracleScope{}
		for i, c := range res.Cols {
			env[c] = row[i]
		}
		rows[ri].row = row
		for _, o := range order {
			v, err := evalExpr(o.Expr, env)
			if err != nil {
				return err
			}
			rows[ri].keys = append(rows[ri].keys, v)
		}
	}
	sort.SliceStable(rows, func(a, b int) bool {
		for oi, o := range order {
			c, ok := compareValues(rows[a].keys[oi], rows[b].keys[oi])
			if !ok || c == 0 {
				continue
			}
			return (c < 0) != o.Desc
		}
		return false
	})
	for i := range rows {
		res.Rows[i] = rows[i].row
	}
	return nil
}

// oracleMatcher is the backtracking pattern matcher: out/in are the
// adjacency rows built from the edge log (edges with From/To == v, in ID
// order), env holds the bindings, used the edges taken by the current
// match (no edge twice per match), and done runs once per complete
// match.
type oracleMatcher struct {
	g       *graph.Graph
	out, in [][]graph.EdgeID
	env     oracleScope
	used    map[graph.EdgeID]bool
	done    func() error
}

// bind runs cont with name bound to v, restoring the binding after.
// An empty name binds nothing.
func (m *oracleMatcher) bind(name string, v Value, cont func() error) error {
	if name == "" {
		return cont()
	}
	m.env[name] = v
	err := cont()
	delete(m.env, name)
	return err
}

// patterns matches pats[0], then the rest, then calls done.
func (m *oracleMatcher) patterns(pats []gql.PathPattern) error {
	if len(pats) == 0 {
		return m.done()
	}
	pat := pats[0]
	if len(pat.Nodes) == 0 {
		return fmt.Errorf("exec: empty pattern")
	}
	rest := func(at graph.VertexID) error { return m.chain(pats, 1, at) }
	first := pat.Nodes[0]
	if v, ok := m.env[first.Var]; ok && first.Var != "" {
		// Joined with an earlier pattern.
		ref, ok := v.(VertexRef)
		if !ok {
			return fmt.Errorf("exec: variable %s is not a vertex", first.Var)
		}
		if first.Type != "" && m.g.Vertex(ref.ID).Type != first.Type {
			return nil
		}
		return rest(ref.ID)
	}
	for id := graph.VertexID(0); int(id) < m.g.NumVertices(); id++ {
		if first.Type != "" && m.g.Vertex(id).Type != first.Type {
			continue
		}
		err := m.bind(first.Var, VertexRef{G: m.g, ID: id}, func() error { return rest(id) })
		if err != nil {
			return err
		}
	}
	return nil
}

// chain continues pats[0] at node index ni, the chain standing at at.
func (m *oracleMatcher) chain(pats []gql.PathPattern, ni int, at graph.VertexID) error {
	pat := pats[0]
	if ni == len(pat.Nodes) {
		return m.patterns(pats[1:])
	}
	edge, to := pat.Edges[ni-1], pat.Nodes[ni]
	next := func(v graph.VertexID) error {
		return m.target(to, v, func() error { return m.chain(pats, ni+1, v) })
	}
	if edge.VarLength {
		return m.varLength(at, edge, next, nil)
	}
	for _, eid := range m.steps(at, edge) {
		step := func() error {
			return m.take(eid, func() error { return next(m.far(eid, edge)) })
		}
		var err error
		if prev, ok := m.env[edge.Var]; ok && edge.Var != "" {
			// A repeated edge variable must name this very edge.
			if ref, isEdge := prev.(EdgeRef); !isEdge || ref.ID != eid {
				continue
			}
			err = step()
		} else {
			err = m.bind(edge.Var, EdgeRef{G: m.g, ID: eid}, step)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// varLength walks every path of edge.MinHops..MaxHops edges from at,
// depth first, emitting at each length in range before extending it.
func (m *oracleMatcher) varLength(at graph.VertexID, edge gql.EdgePattern, next func(graph.VertexID) error, path []graph.EdgeID) error {
	if len(path) >= edge.MinHops {
		if edge.Var == "" {
			if err := next(at); err != nil {
				return err
			}
		} else {
			if _, ok := m.env[edge.Var]; ok {
				return fmt.Errorf("exec: variable-length variable %s bound twice", edge.Var)
			}
			p := PathRef{G: m.g, Edges: append([]graph.EdgeID{}, path...)}
			if err := m.bind(edge.Var, p, func() error { return next(at) }); err != nil {
				return err
			}
		}
	}
	if edge.MaxHops >= 0 && len(path) == edge.MaxHops {
		return nil
	}
	for _, eid := range m.steps(at, edge) {
		longer := append(append([]graph.EdgeID{}, path...), eid)
		err := m.take(eid, func() error { return m.varLength(m.far(eid, edge), edge, next, longer) })
		if err != nil {
			return err
		}
	}
	return nil
}

// target checks (or binds) node pattern n against vertex v, then runs
// cont.
func (m *oracleMatcher) target(n gql.NodePattern, v graph.VertexID, cont func() error) error {
	if n.Type != "" && m.g.Vertex(v).Type != n.Type {
		return nil
	}
	if prev, ok := m.env[n.Var]; ok && n.Var != "" {
		ref, ok := prev.(VertexRef)
		if !ok {
			return fmt.Errorf("exec: variable %s is not a vertex", n.Var)
		}
		if ref.ID != v {
			return nil
		}
		return cont()
	}
	return m.bind(n.Var, VertexRef{G: m.g, ID: v}, cont)
}

// steps lists the unused edges an edge pattern can take from v, in
// insertion order, filtered by the pattern's type.
func (m *oracleMatcher) steps(v graph.VertexID, edge gql.EdgePattern) []graph.EdgeID {
	adj := m.out[v]
	if edge.Reversed {
		adj = m.in[v]
	}
	var out []graph.EdgeID
	for _, eid := range adj {
		if m.used[eid] || (edge.Type != "" && m.g.Edge(eid).Type != edge.Type) {
			continue
		}
		out = append(out, eid)
	}
	return out
}

// far is the endpoint an edge step arrives at.
func (m *oracleMatcher) far(eid graph.EdgeID, edge gql.EdgePattern) graph.VertexID {
	if edge.Reversed {
		return m.g.Edge(eid).From
	}
	return m.g.Edge(eid).To
}

// take marks eid used for the duration of cont.
func (m *oracleMatcher) take(eid graph.EdgeID, cont func() error) error {
	m.used[eid] = true
	err := cont()
	delete(m.used, eid)
	return err
}

// oracleFold is RETURN/SELECT item evaluation over a stream of binding
// environments: plain projection, or grouping when the items aggregate
// or GROUP BY is given.
type oracleFold struct {
	items  []gql.ReturnItem
	keys   []gql.Expr
	aggs   []*gql.FuncCall
	group  bool
	rows   []Row
	groups []*oracleGroup // first-seen order
}

type oracleGroup struct {
	key  []Value
	rep  oracleScope // bindings of the group's first row
	accs []accumulator
}

func newOracleFold(items []gql.ReturnItem, groupBy []gql.Expr) *oracleFold {
	f := &oracleFold{items: items, keys: groupBy}
	for _, item := range items {
		f.aggs = append(f.aggs, oracleAggCalls(item.Expr)...)
	}
	f.group = len(f.aggs) > 0 || len(groupBy) > 0
	if len(groupBy) == 0 {
		for _, item := range items {
			if !gql.HasAggregate(item.Expr) {
				f.keys = append(f.keys, item.Expr)
			}
		}
	}
	return f
}

// oracleAggCalls lists the aggregate calls in e, left to right.
func oracleAggCalls(e gql.Expr) []*gql.FuncCall {
	switch e := e.(type) {
	case *gql.FuncCall:
		if e.IsAggregate() {
			return []*gql.FuncCall{e}
		}
		var out []*gql.FuncCall
		for _, a := range e.Args {
			out = append(out, oracleAggCalls(a)...)
		}
		return out
	case *gql.BinaryExpr:
		return append(oracleAggCalls(e.Left), oracleAggCalls(e.Right)...)
	case *gql.UnaryExpr:
		return oracleAggCalls(e.Operand)
	}
	return nil
}

func (f *oracleFold) add(env oracleScope) error {
	if !f.group {
		row := make(Row, len(f.items))
		for i, item := range f.items {
			v, err := evalExpr(item.Expr, env)
			if err != nil {
				return err
			}
			row[i] = v
		}
		f.rows = append(f.rows, row)
		return nil
	}
	key := make([]Value, len(f.keys))
	for i, ke := range f.keys {
		v, err := evalExpr(ke, env)
		if err != nil {
			return err
		}
		key[i] = v
	}
	args := make([]Value, len(f.aggs))
	for i, call := range f.aggs {
		if call.Star {
			continue
		}
		if len(call.Args) != 1 {
			return fmt.Errorf("exec: %s expects one argument", call.Name)
		}
		v, err := evalExpr(call.Args[0], env)
		if err != nil {
			return err
		}
		args[i] = v
	}
	var grp *oracleGroup
	for _, cand := range f.groups {
		if slices.EqualFunc(cand.key, key, sameValue) {
			grp = cand
			break
		}
	}
	if grp == nil {
		grp = f.newGroup(key, env.snapshot())
	}
	for i, call := range f.aggs {
		if err := grp.accs[i].add(args[i], call.Star); err != nil {
			return err
		}
	}
	return nil
}

func (f *oracleFold) newGroup(key []Value, rep oracleScope) *oracleGroup {
	grp := &oracleGroup{key: key, rep: rep}
	for _, call := range f.aggs {
		grp.accs = append(grp.accs, newAccumulator(call.Name))
	}
	f.groups = append(f.groups, grp)
	return grp
}

func (f *oracleFold) result() (*Result, error) {
	res := &Result{}
	for _, item := range f.items {
		res.Cols = append(res.Cols, item.Name())
	}
	if !f.group {
		res.Rows = f.rows
		return res, nil
	}
	// Aggregation without grouping keys yields one row even on empty
	// input.
	if len(f.keys) == 0 && len(f.groups) == 0 {
		f.newGroup(nil, oracleScope{})
	}
	for _, grp := range f.groups {
		vals := make([]Value, len(f.aggs))
		for i := range f.aggs {
			vals[i] = grp.accs[i].result()
		}
		row := make(Row, len(f.items))
		for i, item := range f.items {
			v, err := evalWithAggs(item.Expr, grp.rep, f.aggs, vals)
			if err != nil {
				return nil, err
			}
			row[i] = v
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// sameValue is grouping-key equality: same dynamic type and value,
// floats by bit pattern (every NaN equal to every NaN), vertices and
// edges by ID, paths by edge sequence.
func sameValue(a, b Value) bool {
	switch a := a.(type) {
	case float64:
		b, ok := b.(float64)
		return ok && (math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b))
	case VertexRef:
		b, ok := b.(VertexRef)
		return ok && a.ID == b.ID
	case EdgeRef:
		b, ok := b.(EdgeRef)
		return ok && a.ID == b.ID
	case PathRef:
		b, ok := b.(PathRef)
		return ok && slices.Equal(a.Edges, b.Edges)
	}
	return a == b
}

// TestOracleHandResults pins the reference evaluator itself against
// hand-derived answers, so it cannot drift together with the engine.
func TestOracleHandResults(t *testing.T) {
	cycle := graph.NewGraph(nil)
	a := cycle.MustAddVertex("V", nil)
	b := cycle.MustAddVertex("V", nil)
	cycle.MustAddEdge(a, b, "E", nil)
	cycle.MustAddEdge(b, a, "E", nil)
	lin, _ := lineage(t)
	for _, tc := range []struct {
		g    *graph.Graph
		src  string
		want string
	}{
		// Edge uniqueness bounds the unbounded walk: a->b, a->b->a,
		// b->a, b->a->b.
		{cycle, `MATCH (x)-[r*]->(y) RETURN COUNT(r) AS n`, "[[4]]"},
		// Distinct 2-hop job->file->job paths: j1-f1-j2 and j1-f2-j3.
		{lin, `MATCH (a:Job)-[r*2..2]->(b:Job) RETURN COUNT(r) AS n`, "[[2]]"},
		// Zero hops bind the target to the source, with an empty path.
		{lin, `MATCH (a:Job)-[r*0..0]->(b) RETURN ID(a) AS a, ID(b) AS b, LENGTH(r) AS n`, "[[0 0 0] [1 1 0] [2 2 0]]"},
		// Groups come out in first-seen order.
		{lin, `MATCH (f:File)<-[:WRITES_TO]-(j:Job) RETURN j.name AS name, COUNT(f) AS n`, "[[j1 2] [j2 1] [j3 1]]"},
		{lin, `SELECT name, cpu FROM (
			MATCH (j:Job) RETURN j.name AS name, j.CPU AS cpu
		) ORDER BY cpu DESC LIMIT 2`, "[[j3 30] [j2 20]]"},
		// Aggregation without keys yields one row on empty input.
		{lin, `MATCH (j:Job) WHERE j.CPU > 1000 RETURN COUNT(*) AS n, MIN(j.CPU) AS lo`, "[[0 <nil>]]"},
	} {
		if got := fmt.Sprint(oracleRun(t, tc.g, tc.src).Rows); got != tc.want {
			t.Errorf("oracle(%q) = %s, want %s", tc.src, got, tc.want)
		}
	}
}
