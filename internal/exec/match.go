package exec

import (
	"context"
	"fmt"

	"kaskade/internal/gql"
	"kaskade/internal/graph"
	"kaskade/internal/metrics"
)

// matcher performs backtracking pattern matching of a MATCH clause over a
// graph, with Cypher edge-uniqueness semantics: no edge is used twice
// within one match of the whole clause (this is what makes variable-length
// traversal over cyclic graphs terminate).
//
// Traversal steps run on the frozen CSR view the executor builds once
// per query: a typed edge pattern expands through OutOfType/InOfType,
// one contiguous pre-filtered slice per step, and endpoint/type lookups
// read flat arrays instead of the Edge records. The frozen view
// preserves insertion order within each type group, so enumeration
// order is the graph's insertion order (the test-only reference
// evaluator pins this).
//
// Bindings live in flat plan-time scratch, not a map: varNames holds
// the variables the query needs bound (boundVars, computed once per
// execution and shared by every worker's matcher) and slots the bound
// value per variable, nil meaning unbound — pattern variables only ever
// bind non-nil refs. Every other pattern variable is matched as if it
// were anonymous: type checks and edge uniqueness are unchanged, but
// nothing is boxed into a slot for it. Binding and backtracking are a
// slot store and a nil store; the matcher itself implements the
// evaluator's scope over the slots, so WHERE/RETURN evaluation does no
// map work at all. Values handed out of a live binding (projected rows,
// aggregation inputs, group representatives) are exported at the escape
// boundary — see exportValue.
type matcher struct {
	g        *graph.Graph
	f        *graph.Frozen // frozen CSR view the traversal reads
	varNames []string      // bound variables (boundVars); shared, read-only
	slots    []Value       // bound value per variable; nil = unbound
	usedEdge []bool        // edge-uniqueness set, indexed by EdgeID
	where    gql.Expr      // optional row filter
	yield    func() error  // called once per full match
	ctx      context.Context
	steps    int // tick counter amortizing ctx polls

	// firstCands, when non-nil, replaces the first pattern's first-node
	// enumeration: the column prefilter's surviving candidate list
	// (sequential path; the parallel path filters its chunk input
	// instead).
	firstCands []graph.VertexID

	// colReads/mapReads count covered column reads vs vertex map
	// fallbacks, flushed coarsely via flushPropReads.
	colReads int64
	mapReads int64
}

// newMatcher builds a matcher for q over ex's graph, traversing the
// query's frozen snapshot f and binding only vars (boundVars(q)). The
// edge-uniqueness set costs O(NumEdges) to allocate and zero, so it is
// only built when the patterns actually contain edge steps — a
// vertex-only point query pays nothing for it regardless of graph size.
func (ex *Executor) newMatcher(ctx context.Context, q *gql.MatchQuery, f *graph.Frozen, vars []string) *matcher {
	m := &matcher{
		g:        ex.G,
		f:        f,
		varNames: vars,
		slots:    make([]Value, len(vars)),
		where:    q.Where,
		ctx:      ctx,
	}
	for _, pat := range q.Patterns {
		if len(pat.Edges) > 0 {
			m.usedEdge = make([]bool, ex.G.NumEdges())
			break
		}
	}
	return m
}

// boundVars lists, in first-occurrence order, the pattern variables a
// match of q must bind: those an expression reads (WHERE, RETURN items,
// aggregate arguments) and those occurring more than once across the
// patterns, whose bindings the matcher checks against each other
// (joins, cycles, a name used for both a node and an edge, a
// var-length variable bound twice). Every other variable is
// unobservable, so the matcher treats it as anonymous.
func boundVars(q *gql.MatchQuery) []string {
	read := make(map[string]bool)
	exprVars(q.Where, read)
	for _, item := range q.Return {
		exprVars(item.Expr, read)
	}
	var order []string
	seen := make(map[string]int)
	note := func(name string) {
		if name == "" {
			return
		}
		if seen[name] == 0 {
			order = append(order, name)
		}
		seen[name]++
	}
	for _, pat := range q.Patterns {
		for _, n := range pat.Nodes {
			note(n.Var)
		}
		for _, e := range pat.Edges {
			note(e.Var)
		}
	}
	vars := order[:0]
	for _, name := range order {
		if read[name] || seen[name] > 1 {
			vars = append(vars, name)
		}
	}
	return vars
}

// exprVars adds the variables e reads to read.
func exprVars(e gql.Expr, read map[string]bool) {
	switch e := e.(type) {
	case *gql.Ident:
		read[e.Name] = true
	case *gql.PropAccess:
		read[e.Base] = true
	case *gql.UnaryExpr:
		exprVars(e.Operand, read)
	case *gql.BinaryExpr:
		exprVars(e.Left, read)
		exprVars(e.Right, read)
	case *gql.FuncCall:
		for _, a := range e.Args {
			exprVars(a, read)
		}
	}
}

// slot resolves a variable to its scratch index (-1 when the name is
// anonymous or not bound). Queries bind a handful of variables, so a
// linear scan — with Go's pointer-equality fast path for interned
// strings — beats map hashing.
func (m *matcher) slot(name string) int {
	for i, n := range m.varNames {
		if n == name {
			return i
		}
	}
	return -1
}

// lookup implements scope over the slots: bound means non-nil.
func (m *matcher) lookup(name string) (Value, bool) {
	for i, n := range m.varNames {
		if n == name {
			v := m.slots[i]
			return v, v != nil
		}
	}
	return nil, false
}

// prop implements scope: vertex reads route through the frozen columns.
func (m *matcher) prop(base Value, key string) (Value, error) {
	return readProp(base, key, &m.colReads, &m.mapReads)
}

// snapshot implements rowSource: the slots as a positional row over
// varNames, values exported for retention beyond the current match.
func (m *matcher) snapshot() Row {
	out := make(Row, len(m.slots))
	for i, v := range m.slots {
		out[i] = exportValue(v)
	}
	return out
}

// flushPropReads moves the matcher's property-read tallies into the
// registry (nil-safe). Called once per match (or worker), not per read,
// so the hot path stays on plain local ints.
func (m *matcher) flushPropReads(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	if m.colReads > 0 {
		reg.ColumnScans.Add(m.colReads)
	}
	if m.mapReads > 0 {
		reg.PropMapFallbacks.Add(m.mapReads)
	}
	m.colReads, m.mapReads = 0, 0
}

// stepEdges returns the adjacency slice to scan for one edge-pattern
// step at vertex v: the contiguous (v, type) group for a typed step,
// the whole row otherwise.
func (m *matcher) stepEdges(v graph.VertexID, etype string, reversed bool) []graph.EdgeID {
	switch {
	case etype != "" && reversed:
		return m.f.InOfType(v, etype)
	case etype != "":
		return m.f.OutOfType(v, etype)
	case reversed:
		return m.f.In(v)
	}
	return m.f.Out(v)
}

// edgeEndpoint returns the step's target endpoint of eid (the source
// when reversed).
func (m *matcher) edgeEndpoint(eid graph.EdgeID, reversed bool) graph.VertexID {
	if reversed {
		return m.f.From(eid)
	}
	return m.f.To(eid)
}

// tickEvery is how many traversal steps pass between context polls: a
// power of two so the check compiles to a mask, small enough that even a
// match that never yields (everything filtered by WHERE, or a huge
// search space per candidate) notices cancellation promptly.
const tickEvery = 256

// tick is called on every traversal step (candidate binding, edge
// probe). It polls the matcher's context once every tickEvery steps and
// returns the context's error once cancelled, which aborts the
// backtracking search the same way any evaluation error would.
func (m *matcher) tick() error {
	if m.ctx == nil {
		return nil
	}
	m.steps++
	if m.steps&(tickEvery-1) != 0 {
		return nil
	}
	return m.ctx.Err()
}

// matchPatterns enumerates all matches of the given patterns and calls
// yield with the matcher's slots populated.
func (m *matcher) matchPatterns(patterns []gql.PathPattern) error {
	return m.startPattern(patterns, 0)
}

// startPattern begins matching pattern pi by binding its first node, then
// walking the chain; when all patterns are matched, the WHERE filter runs
// and yield fires.
func (m *matcher) startPattern(patterns []gql.PathPattern, pi int) error {
	if pi == len(patterns) {
		if m.where != nil {
			ok, err := evalBool(m.where, m)
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
		}
		return m.yield()
	}
	pat := patterns[pi]
	if len(pat.Nodes) == 0 {
		return fmt.Errorf("exec: empty pattern")
	}
	if pi == 0 && m.firstCands != nil {
		// Column-prefiltered first-node enumeration: the surviving
		// candidates, in the original order. The prefilter only engages
		// on shapes where the first node has a fresh variable (see
		// columnPrefilter), so this is a plain bind-walk-unbind loop.
		si := m.slot(pat.Nodes[0].Var)
		for _, id := range m.firstCands {
			if err := m.tick(); err != nil {
				return err
			}
			m.slots[si] = VertexRef{G: m.g, ID: id}
			err := m.walkChain(patterns, 0, 1, id)
			m.slots[si] = nil
			if err != nil {
				return err
			}
		}
		return nil
	}
	return m.bindNode(pat.Nodes[0], func(at graph.VertexID) error {
		return m.walkChain(patterns, pi, 1, at)
	})
}

// walkChain continues pattern pi at node index ni with the chain's
// current endpoint at `at`.
func (m *matcher) walkChain(patterns []gql.PathPattern, pi, ni int, at graph.VertexID) error {
	pat := patterns[pi]
	if ni == len(pat.Nodes) {
		return m.startPattern(patterns, pi+1)
	}
	edge := pat.Edges[ni-1]
	toPat := pat.Nodes[ni]
	cont := func(next graph.VertexID) error {
		return m.walkChain(patterns, pi, ni+1, next)
	}
	if edge.VarLength {
		return m.matchVarLength(at, edge, toPat, cont)
	}
	return m.matchSingleEdge(at, edge, toPat, cont)
}

// bindNode binds the first node of a chain: either the variable is
// already bound (join with an earlier pattern) or we enumerate candidate
// vertices (restricted by type when given).
func (m *matcher) bindNode(n gql.NodePattern, cont func(graph.VertexID) error) error {
	si := m.slot(n.Var)
	if si >= 0 {
		if v := m.slots[si]; v != nil {
			ref, ok := v.(VertexRef)
			if !ok {
				return fmt.Errorf("exec: variable %s is not a vertex", n.Var)
			}
			if n.Type != "" && m.f.VertexTypeOf(ref.ID) != n.Type {
				return nil
			}
			return cont(ref.ID)
		}
	}
	try := func(id graph.VertexID) error {
		if err := m.tick(); err != nil {
			return err
		}
		if si < 0 {
			return cont(id)
		}
		m.slots[si] = VertexRef{G: m.g, ID: id}
		err := cont(id)
		m.slots[si] = nil
		return err
	}
	if n.Type != "" {
		for _, id := range m.g.VerticesOfType(n.Type) {
			if err := try(id); err != nil {
				return err
			}
		}
		return nil
	}
	for id := 0; id < m.g.NumVertices(); id++ {
		if err := try(graph.VertexID(id)); err != nil {
			return err
		}
	}
	return nil
}

// checkAndBindTarget binds (or joins) the target node of an edge step and
// invokes cont with the target vertex.
func (m *matcher) checkAndBindTarget(toPat gql.NodePattern, target graph.VertexID, cont func(graph.VertexID) error) error {
	if toPat.Type != "" && m.f.VertexTypeOf(target) != toPat.Type {
		return nil
	}
	si := m.slot(toPat.Var)
	if si < 0 {
		return cont(target)
	}
	if v := m.slots[si]; v != nil {
		ref, ok := v.(VertexRef)
		if !ok {
			return fmt.Errorf("exec: variable %s is not a vertex", toPat.Var)
		}
		if ref.ID != target {
			return nil
		}
		return cont(target)
	}
	m.slots[si] = VertexRef{G: m.g, ID: target}
	err := cont(target)
	m.slots[si] = nil
	return err
}

func (m *matcher) matchSingleEdge(from graph.VertexID, e gql.EdgePattern, toPat gql.NodePattern, cont func(graph.VertexID) error) error {
	edges := m.stepEdges(from, e.Type, e.Reversed)
	ei := m.slot(e.Var)
	for _, eid := range edges {
		if err := m.tick(); err != nil {
			return err
		}
		if m.usedEdge[eid] {
			continue
		}
		target := m.edgeEndpoint(eid, e.Reversed)
		var undoVar bool
		if ei >= 0 {
			if prev := m.slots[ei]; prev != nil {
				if ref, ok := prev.(EdgeRef); !ok || ref.ID != eid {
					continue
				}
			} else {
				m.slots[ei] = EdgeRef{G: m.g, ID: eid}
				undoVar = true
			}
		}
		m.usedEdge[eid] = true
		err := m.checkAndBindTarget(toPat, target, cont)
		m.usedEdge[eid] = false
		if undoVar {
			m.slots[ei] = nil
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// matchVarLength walks paths of length MinHops..MaxHops from `from`,
// following edges of the pattern's type (any type when empty), honoring
// global edge-uniqueness. Each distinct edge sequence is a distinct match
// (path semantics, which is what connector views contract).
func (m *matcher) matchVarLength(from graph.VertexID, e gql.EdgePattern, toPat gql.NodePattern, cont func(graph.VertexID) error) error {
	var path []graph.EdgeID
	min, max := e.MinHops, e.MaxHops
	ei := m.slot(e.Var)

	emit := func(at graph.VertexID) error {
		if ei < 0 {
			return m.checkAndBindTarget(toPat, at, cont)
		}
		if m.slots[ei] != nil {
			return fmt.Errorf("exec: variable-length variable %s bound twice", e.Var)
		}
		// The binding aliases the walk's scratch path — no per-yield
		// copy. The walk never mutates path while the binding is live
		// (it appends only after emit returns and the slot is cleared);
		// anything that outlives the yield is exported at its escape
		// boundary instead (exportValue).
		m.slots[ei] = PathRef{G: m.g, Edges: path}
		err := m.checkAndBindTarget(toPat, at, cont)
		m.slots[ei] = nil
		return err
	}

	var walk func(at graph.VertexID, hops int) error
	walk = func(at graph.VertexID, hops int) error {
		if hops >= min {
			if err := emit(at); err != nil {
				return err
			}
		}
		if max >= 0 && hops == max {
			return nil
		}
		for _, eid := range m.stepEdges(at, e.Type, e.Reversed) {
			if err := m.tick(); err != nil {
				return err
			}
			if m.usedEdge[eid] {
				continue
			}
			next := m.edgeEndpoint(eid, e.Reversed)
			m.usedEdge[eid] = true
			path = append(path, eid)
			err := walk(next, hops+1)
			path = path[:len(path)-1]
			m.usedEdge[eid] = false
			if err != nil {
				return err
			}
		}
		return nil
	}
	return walk(from, 0)
}
