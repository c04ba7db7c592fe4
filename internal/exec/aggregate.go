package exec

import (
	"fmt"
	"math"

	"kaskade/internal/gql"
	"kaskade/internal/graph"
)

// aggregator implements grouped aggregation for both SELECT ... GROUP BY
// and Cypher-style implicit grouping in RETURN (group by the
// non-aggregate items). newAggregator returns nil when no aggregation is
// needed (pure projection).
//
// Each group keeps its first input row as a positional representative
// (aggGroup.rep, named by repCols): the subquery row itself for a
// SELECT, an exported copy of the matcher's slots for a MATCH. finish
// evaluates the non-aggregate parts of the items against it.
type aggregator struct {
	items    []gql.ReturnItem
	keyExprs []gql.Expr      // grouping key expressions
	aggNodes []*gql.FuncCall // aggregate calls across all items
	repCols  []string        // names of the representative rows' positions
	groups   map[string]*aggGroup
	order    []string // group keys in first-seen order

	// feed-path scratch. feed is goroutine-confined (each chunk owns its
	// aggregator; the sequential path has one), so the per-row key and
	// argument slices are reused across rows instead of reallocated.
	// prepare, by contrast, runs concurrently on the SHARED merge-target
	// aggregator from buffered-mode workers and must keep allocating.
	keyBuf []Value
	argBuf []Value
}

type aggGroup struct {
	rep  Row // the group's first input row, positional over repCols
	accs []accumulator
}

// newAggregator builds the aggregator for items grouped by groupBy (or
// implicitly), fed from rows whose positions repCols names.
func newAggregator(items []gql.ReturnItem, groupBy []gql.Expr, repCols []string) *aggregator {
	var aggNodes []*gql.FuncCall
	for _, item := range items {
		aggNodes = append(aggNodes, collectAggregates(item.Expr)...)
	}
	if len(aggNodes) == 0 && len(groupBy) == 0 {
		return nil
	}
	a := &aggregator{
		items:    items,
		keyExprs: groupBy,
		aggNodes: aggNodes,
		repCols:  repCols,
		groups:   make(map[string]*aggGroup),
	}
	if len(groupBy) == 0 {
		// Implicit grouping: key on the aggregate-free items.
		for _, item := range items {
			if !gql.HasAggregate(item.Expr) {
				a.keyExprs = append(a.keyExprs, item.Expr)
			}
		}
	}
	a.keyBuf = make([]Value, len(a.keyExprs))
	a.argBuf = make([]Value, len(a.aggNodes))
	return a
}

// AggMode is the aggregation execution strategy the executor selects at
// plan time by inspecting a query's RETURN items (see QueryAggMode).
type AggMode int

const (
	// AggModeNone: pure projection, no aggregation. The parallel path
	// streams each chunk's row prefix eagerly as it is produced.
	AggModeNone AggMode = iota
	// AggModeBuffered: at least one accumulator's fold order is
	// observable (float SUM, AVG), so the parallel path buffers each
	// chunk's prepared yields and folds them at merge time, in exactly
	// the sequential feed order — byte-identical float accumulation at
	// the cost of materializing every yield.
	AggModeBuffered
	// AggModePartial: every accumulator is order-insensitive
	// (COUNT/COUNT(*), MIN, MAX, integer SUM), so each chunk runs its
	// own partial accumulators and the merge combines per-chunk states
	// in partition order — no yield buffer, same bytes.
	AggModePartial
)

// String names the mode for Explain-style display.
func (m AggMode) String() string {
	switch m {
	case AggModeBuffered:
		return "buffered"
	case AggModePartial:
		return "partial"
	}
	return "none"
}

// typeEnv is the static type context a MATCH block gives its RETURN
// expressions: the graph's schema (property kind declarations) and the
// type label each pattern variable is constrained to. It is what lets
// intTyped prove SUM(j.CPU) integer-valued when the schema declares
// Job.CPU as PropInt. A nil *typeEnv is valid and proves nothing —
// the conservative pre-schema behavior.
type typeEnv struct {
	schema *graph.Schema
	vars   map[string]string // pattern variable -> vertex/edge type label
}

// newTypeEnv derives the type context from a MATCH block's patterns:
// node variables with an explicit type label, and single-edge variables
// with an explicit edge type. A variable appearing with conflicting
// labels (the match would be empty anyway) is dropped. Variable-length
// path variables bind PathRefs, not elements, so they carry no type.
func newTypeEnv(schema *graph.Schema, patterns []gql.PathPattern) *typeEnv {
	if schema == nil {
		return nil
	}
	vars := make(map[string]string)
	conflict := make(map[string]bool)
	note := func(name, label string) {
		if name == "" || label == "" || conflict[name] {
			return
		}
		if prev, ok := vars[name]; ok && prev != label {
			delete(vars, name)
			conflict[name] = true
			return
		}
		vars[name] = label
	}
	for _, pat := range patterns {
		for _, n := range pat.Nodes {
			note(n.Var, n.Type)
		}
		for _, e := range pat.Edges {
			if !e.VarLength {
				note(e.Var, e.Type)
			}
		}
	}
	return &typeEnv{schema: schema, vars: vars}
}

// propKind resolves the declared kind of varName.prop, when the
// variable's type label is known and the schema declares the property.
func (te *typeEnv) propKind(varName, prop string) (graph.PropKind, bool) {
	if te == nil {
		return 0, false
	}
	label, ok := te.vars[varName]
	if !ok {
		return 0, false
	}
	return te.schema.PropertyKind(label, prop)
}

// aggModeOf classifies a RETURN item list. Partial merging requires
// every aggregate to be insensitive to fold order: COUNT and MIN/MAX
// always are (integer addition is associative; MIN/MAX keep the
// first-seen best on ties, which partition-order merging preserves,
// and ignore NaN outright — see minMaxAcc.add — so float ties are
// genuine ties), SUM only when its argument provably folds in
// integers, and AVG never (its sum accumulates in float64). te widens
// the provably-integer class with schema property declarations.
func aggModeOf(items []gql.ReturnItem, te *typeEnv) AggMode {
	var aggNodes []*gql.FuncCall
	for _, item := range items {
		aggNodes = append(aggNodes, collectAggregates(item.Expr)...)
	}
	if len(aggNodes) == 0 {
		return AggModeNone
	}
	for _, node := range aggNodes {
		switch node.Name {
		case "COUNT", "MIN", "MAX":
		case "SUM":
			if node.Star || len(node.Args) != 1 || !intTyped(node.Args[0], te) {
				return AggModeBuffered
			}
		default: // AVG, and anything newAccumulator would reject
			return AggModeBuffered
		}
	}
	return AggModePartial
}

// intTyped reports whether e provably evaluates to int64 (or nil, which
// accumulators skip) on every environment where it evaluates at all —
// the static check that licenses partial SUM merging. Property accesses
// are untyped in the data model unless the schema declares the property
// (Schema.DeclareProperty) for the variable's type label; undeclared
// accesses stay on the buffered path. A declaration is trusted at plan
// time; if the stored values then contradict it (float64 under a
// PropInt declaration), the partial merge fails loudly (sumAcc.merge)
// rather than silently producing worker-count-dependent float folds.
func intTyped(e gql.Expr, te *typeEnv) bool {
	switch e := e.(type) {
	case *gql.Lit:
		_, ok := e.Value.(int64)
		return ok
	case *gql.PropAccess:
		k, ok := te.propKind(e.Base, e.Key)
		return ok && k == graph.PropInt
	case *gql.UnaryExpr:
		return e.Op == "-" && intTyped(e.Operand, te)
	case *gql.BinaryExpr:
		// Integer division can promote to float (7/2), so only + - *.
		switch e.Op {
		case "+", "-", "*":
			return intTyped(e.Left, te) && intTyped(e.Right, te)
		}
		return false
	case *gql.FuncCall:
		switch e.Name {
		case "ID", "LENGTH":
			// Always int64 (or an error, which aborts either path).
			return true
		case "ABS":
			return len(e.Args) == 1 && intTyped(e.Args[0], te)
		case "COALESCE":
			for _, a := range e.Args {
				if !intTyped(a, te) {
					return false
				}
			}
			return len(e.Args) > 0
		}
		return false
	}
	return false
}

func collectAggregates(e gql.Expr) []*gql.FuncCall {
	switch e := e.(type) {
	case *gql.FuncCall:
		if e.IsAggregate() {
			return []*gql.FuncCall{e}
		}
		var out []*gql.FuncCall
		for _, a := range e.Args {
			out = append(out, collectAggregates(a)...)
		}
		return out
	case *gql.BinaryExpr:
		return append(collectAggregates(e.Left), collectAggregates(e.Right)...)
	case *gql.UnaryExpr:
		return collectAggregates(e.Operand)
	}
	return nil
}

// prepared holds one input row's evaluated aggregation inputs: the
// group key and the aggregate argument values. Evaluating these is the
// per-row work, so the parallel matcher runs prepare on its workers and
// defers only the (order-sensitive) accumulation to the merge phase.
type prepared struct {
	key  string
	args []Value // aligned with aggNodes; nil slots for COUNT(*)
}

// evalKey evaluates the grouping key expressions into buf and encodes
// the group key. buf must have len(a.keyExprs). Without grouping keys
// every row routes to the single group "" and nothing is encoded.
func (a *aggregator) evalKey(sc scope, buf []Value) (string, error) {
	if len(a.keyExprs) == 0 {
		return "", nil
	}
	for i, ke := range a.keyExprs {
		v, err := evalExpr(ke, sc)
		if err != nil {
			return "", err
		}
		buf[i] = v
	}
	return groupKey(buf), nil
}

// evalArgs evaluates the aggregate arguments into buf (len ==
// len(a.aggNodes); nil slots for COUNT(*)). Arguments of every
// aggregate except COUNT can be retained by the accumulator
// (minMaxAcc keeps its best value; buffered yields hold them until the
// merge), so they are exported here — COUNT only nil-checks its
// argument and skips the copy.
func (a *aggregator) evalArgs(sc scope, buf []Value) error {
	for i, node := range a.aggNodes {
		if node.Star {
			buf[i] = nil
			continue
		}
		if len(node.Args) != 1 {
			return fmt.Errorf("exec: %s expects one argument", node.Name)
		}
		v, err := evalExpr(node.Args[0], sc)
		if err != nil {
			return err
		}
		if node.Name != "COUNT" {
			v = exportValue(v)
		}
		buf[i] = v
	}
	return nil
}

// prepare evaluates a row's grouping key and aggregate arguments. It
// only reads the aggregator's immutable shape (items, keyExprs,
// aggNodes), so concurrent calls are safe — which is also why it
// allocates fresh slices instead of using the feed-path scratch:
// buffered-mode workers call prepare on the shared merge-target
// aggregator.
func (a *aggregator) prepare(sc scope) (prepared, error) {
	keyVals := make([]Value, len(a.keyExprs))
	key, err := a.evalKey(sc, keyVals)
	if err != nil {
		return prepared{}, err
	}
	p := prepared{key: key}
	if len(a.aggNodes) > 0 {
		p.args = make([]Value, len(a.aggNodes))
		if err := a.evalArgs(sc, p.args); err != nil {
			return prepared{}, err
		}
	}
	return p, nil
}

// group returns key's group, opening it on first sight with an empty
// representative (the caller fills rep) and reporting whether it is
// new. Calls mutate the group table and must stay on one goroutine.
func (a *aggregator) group(key string) (*aggGroup, bool) {
	if g, ok := a.groups[key]; ok {
		return g, false
	}
	g := &aggGroup{accs: make([]accumulator, len(a.aggNodes))}
	for i, node := range a.aggNodes {
		g.accs[i] = newAccumulator(node.Name)
	}
	a.groups[key] = g
	a.order = append(a.order, key)
	return g, true
}

// accumulate folds one row's aggregate arguments (nil for COUNT(*)
// slots, or a nil slice) into g.
func (a *aggregator) accumulate(g *aggGroup, args []Value) error {
	for i, node := range a.aggNodes {
		var v Value
		if args != nil {
			v = args[i]
		}
		if err := g.accs[i].add(v, node.Star); err != nil {
			return err
		}
	}
	return nil
}

// feedPrepared routes prepared inputs into their group; rep becomes the
// representative if the group is new.
func (a *aggregator) feedPrepared(p prepared, rep Row) error {
	g, isNew := a.group(p.key)
	if isNew {
		g.rep = rep
	}
	return a.accumulate(g, p.args)
}

// feed routes one input row into its group. feed is goroutine-confined,
// so it evaluates into the reusable scratch buffers — the accumulators
// consume argument values immediately (retained ones were exported by
// evalArgs), never the slice itself — and snapshots the row only when
// it opens a group.
func (a *aggregator) feed(src rowSource) error {
	key, err := a.evalKey(src, a.keyBuf)
	if err != nil {
		return err
	}
	if err := a.evalArgs(src, a.argBuf); err != nil {
		return err
	}
	g, isNew := a.group(key)
	if isNew {
		g.rep = src.snapshot()
	}
	return a.accumulate(g, a.argBuf)
}

// mergeFrom folds a chunk-local aggregator of the same shape into a, in
// the chunk's first-seen group order. A group unseen by a is adopted
// wholesale (its representative row was the chunk's first — and, since
// no earlier partition saw the key, the global first); a known group
// merges accumulator states pairwise. Calling mergeFrom chunk by chunk
// in partition order reproduces the sequential path's group order and,
// for order-insensitive accumulators, its exact values. b must not be
// used afterwards.
func (a *aggregator) mergeFrom(b *aggregator) error {
	for _, key := range b.order {
		bg := b.groups[key]
		g, ok := a.groups[key]
		if !ok {
			a.groups[key] = bg
			a.order = append(a.order, key)
			continue
		}
		for i := range g.accs {
			m, ok := g.accs[i].(mergeable)
			if !ok {
				// Unreachable when the plan selected AggModePartial.
				return fmt.Errorf("exec: %T cannot merge partial states", g.accs[i])
			}
			if err := m.merge(bg.accs[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// finish produces the grouped output rows in first-seen group order.
// Aggregate results resolve by ordinal (aligned with aggNodes) through
// one buffer reused across groups; the rest of each item evaluates
// against the group's representative row.
func (a *aggregator) finish() ([]Row, error) {
	groups := a.order
	// With no grouping keys, SQL/Cypher aggregation yields exactly one
	// row even on empty input; its representative is empty, so a
	// variable read outside the aggregates is unknown.
	if len(a.keyExprs) == 0 && len(groups) == 0 {
		a.group("")
		groups = a.order
	}
	aggVals := make([]Value, len(a.aggNodes))
	sc := &rowScope{cols: a.repCols}
	var out []Row
	for _, key := range groups {
		g := a.groups[key]
		for i := range a.aggNodes {
			aggVals[i] = g.accs[i].result()
		}
		sc.row = g.rep
		row := make(Row, len(a.items))
		for i, item := range a.items {
			v, err := evalWithAggs(item.Expr, sc, a.aggNodes, aggVals)
			if err != nil {
				return nil, err
			}
			row[i] = v
		}
		out = append(out, row)
	}
	return out, nil
}

// evalWithAggs evaluates an expression where aggregate calls are replaced
// by their accumulated results (aggVals[i] for aggNodes[i]); other
// subexpressions evaluate against the group's representative row.
func evalWithAggs(e gql.Expr, sc scope, aggNodes []*gql.FuncCall, aggVals []Value) (Value, error) {
	switch e := e.(type) {
	case *gql.FuncCall:
		for i, node := range aggNodes {
			if node == e {
				return aggVals[i], nil
			}
		}
	case *gql.BinaryExpr:
		if gql.HasAggregate(e.Left) || gql.HasAggregate(e.Right) {
			l, err := evalWithAggs(e.Left, sc, aggNodes, aggVals)
			if err != nil {
				return nil, err
			}
			r, err := evalWithAggs(e.Right, sc, aggNodes, aggVals)
			if err != nil {
				return nil, err
			}
			switch e.Op {
			case "+", "-", "*", "/":
				return arith(e.Op, l, r)
			}
			c, ok := compareValues(l, r)
			if !ok {
				return nil, fmt.Errorf("exec: cannot compare %T and %T", l, r)
			}
			switch e.Op {
			case "=":
				return c == 0, nil
			case "<>":
				return c != 0, nil
			case "<":
				return c < 0, nil
			case "<=":
				return c <= 0, nil
			case ">":
				return c > 0, nil
			case ">=":
				return c >= 0, nil
			}
		}
	case *gql.UnaryExpr:
		if gql.HasAggregate(e.Operand) {
			v, err := evalWithAggs(e.Operand, sc, aggNodes, aggVals)
			if err != nil {
				return nil, err
			}
			switch e.Op {
			case "-":
				switch v := v.(type) {
				case int64:
					return -v, nil
				case float64:
					return -v, nil
				}
			case "NOT":
				if b, ok := v.(bool); ok {
					return !b, nil
				}
			}
			return nil, fmt.Errorf("exec: %s applied to %T", e.Op, v)
		}
	}
	return evalExpr(e, sc)
}

// --- accumulators ---

type accumulator interface {
	add(v Value, star bool) error
	result() Value
}

// mergeable is implemented by accumulators whose fold is associative,
// so per-chunk partial states combined in partition order yield the
// same bytes as one sequential fold: COUNT (integer addition), MIN/MAX
// (comparison keeps the earlier partition's value on ties, matching the
// sequential first-seen-wins rule), and SUM while it stays in integers
// (the plan-time AggModePartial check guarantees it does). other is
// always the same concrete type as the receiver — both were built by
// newAccumulator for the same aggregate node.
type mergeable interface {
	accumulator
	merge(other accumulator) error
}

func newAccumulator(name string) accumulator {
	switch name {
	case "COUNT":
		return &countAcc{}
	case "SUM":
		return &sumAcc{}
	case "AVG":
		return &avgAcc{}
	case "MIN":
		return &minMaxAcc{wantLess: true}
	case "MAX":
		return &minMaxAcc{wantLess: false}
	}
	panic("exec: unknown aggregate " + name)
}

type countAcc struct{ n int64 }

func (a *countAcc) add(v Value, star bool) error {
	if star || v != nil {
		a.n++
	}
	return nil
}
func (a *countAcc) result() Value { return a.n }

func (a *countAcc) merge(o accumulator) error {
	a.n += o.(*countAcc).n
	return nil
}

type sumAcc struct {
	isFloat bool
	i       int64
	f       float64
	seen    bool
}

func (a *sumAcc) add(v Value, _ bool) error {
	switch v := v.(type) {
	case nil:
		return nil
	case int64:
		a.seen = true
		if a.isFloat {
			a.f += float64(v)
		} else {
			a.i += v
		}
	case float64:
		a.seen = true
		if !a.isFloat {
			a.isFloat = true
			a.f = float64(a.i)
		}
		a.f += v
	default:
		return fmt.Errorf("exec: SUM over %T", v)
	}
	return nil
}

func (a *sumAcc) result() Value {
	if !a.seen {
		return nil
	}
	if a.isFloat {
		return a.f
	}
	return a.i
}

func (a *sumAcc) merge(o accumulator) error {
	b := o.(*sumAcc)
	if !b.seen {
		return nil
	}
	if b.isFloat {
		// merge only runs on the partial path, which the planner selects
		// only after proving the argument folds in integers — so a float
		// here means the proof was wrong, i.e. a schema property
		// declaration (Schema.DeclareProperty(..., PropInt)) lied about
		// the stored values. Folding partial float sums would silently
		// produce worker-count-dependent bits; fail loudly instead so
		// the mis-declaration is found.
		return fmt.Errorf("exec: SUM argument declared integer (schema PropInt) produced float64 values; fix the property declaration")
	}
	return a.add(b.i, false)
}

type avgAcc struct {
	sum float64
	n   int64
}

func (a *avgAcc) add(v Value, _ bool) error {
	f, ok := toFloat(v)
	if v == nil {
		return nil
	}
	if !ok {
		return fmt.Errorf("exec: AVG over %T", v)
	}
	a.sum += f
	a.n++
	return nil
}

func (a *avgAcc) result() Value {
	if a.n == 0 {
		return nil
	}
	return a.sum / float64(a.n)
}

type minMaxAcc struct {
	wantLess bool
	best     Value
}

func (a *minMaxAcc) add(v Value, _ bool) error {
	if v == nil {
		return nil
	}
	// NaN is ignored like nil (SQL-NULL-style): compareValues reports it
	// as tying with everything, which would make the fold sensitive to
	// whether NaN arrived first — an order dependence that would break
	// the partial merge's associativity (and give position-dependent
	// answers sequentially, too).
	if f, ok := v.(float64); ok && math.IsNaN(f) {
		return nil
	}
	if a.best == nil {
		a.best = v
		return nil
	}
	c, ok := compareValues(v, a.best)
	if !ok {
		return fmt.Errorf("exec: MIN/MAX over incomparable %T and %T", v, a.best)
	}
	if (a.wantLess && c < 0) || (!a.wantLess && c > 0) {
		a.best = v
	}
	return nil
}

func (a *minMaxAcc) result() Value { return a.best }

func (a *minMaxAcc) merge(o accumulator) error {
	b := o.(*minMaxAcc)
	if b.best == nil {
		return nil
	}
	// add keeps a.best unless b's is strictly better, so on ties the
	// earlier partition — the sequential first-seen value — wins.
	return a.add(b.best, false)
}
