package exec

import (
	"fmt"

	"kaskade/internal/graph"
)

// scope is the evaluator's view of a variable environment. The matcher
// implements it directly over its flat var->slot scratch, and rowScope
// over a positional row with its column names (SELECT rows, group
// representatives), so no path builds an environment map per row. prop
// is part of the interface so each scope decides how a property access
// reads storage: the matcher routes vertex reads through the frozen
// columns and counts hits vs map fallbacks.
type scope interface {
	// lookup resolves a variable, reporting false when unbound.
	lookup(name string) (Value, bool)
	// prop reads base.key per this scope's storage policy.
	prop(base Value, key string) (Value, error)
}

// rowSource is a scope that aggregation can feed from: besides
// evaluating expressions, it hands out its current row as a positional
// Row safe to retain beyond the current input (a new group's
// representative). The row's positions follow the column names the
// aggregator was built with (newAggregator's repCols).
type rowSource interface {
	scope
	snapshot() Row
}

// rowScope is the scope over one positional row: cols[i] names row[i].
// One rowScope is reused across the rows of a relational pass by
// re-pointing row, so evaluation boxes nothing per row. Lookups scan
// from the last column, so a duplicated column name resolves to its
// last occurrence, as when columns are bound left to right. A row
// shorter than cols (the empty group's nil representative) binds only
// its prefix.
type rowScope struct {
	cols []string
	row  Row
}

func (s *rowScope) lookup(name string) (Value, bool) {
	for i := min(len(s.cols), len(s.row)) - 1; i >= 0; i-- {
		if s.cols[i] == name {
			return s.row[i], true
		}
	}
	return nil, false
}

func (s *rowScope) prop(base Value, key string) (Value, error) {
	return readProp(base, key, nil, nil)
}

// snapshot returns the row itself: relational rows are immutable once
// produced, so retaining one needs no copy.
func (s *rowScope) snapshot() Row { return s.row }

// readProp reads one property. Vertex reads prefer the graph's frozen
// columns when a frozen view has already been built (CachedFrozen never
// builds one mid-evaluation): a covered read is two flat array indexes
// returning the exact boxed value the property map holds. Uncovered
// vertex reads fall back to the map. Edge properties always read the map (edge columns are not
// built). colReads/mapReads, when non-nil, count covered vertex reads
// vs vertex map fallbacks — the columnar-usage metrics.
func readProp(base Value, key string, colReads, mapReads *int64) (Value, error) {
	switch base := base.(type) {
	case VertexRef:
		if f := base.G.CachedFrozen(); f != nil {
			if v, ok := f.VertexPropColumnar(base.ID, key); ok {
				if colReads != nil {
					*colReads++
				}
				return v, nil
			}
		}
		if mapReads != nil {
			*mapReads++
		}
		return base.G.Vertex(base.ID).Prop(key), nil
	case EdgeRef:
		return base.G.Edge(base.ID).Prop(key), nil
	case nil:
		return nil, nil
	}
	return nil, fmt.Errorf("exec: property access on %T", base)
}

// exportValue makes a value safe to retain beyond the binding that
// produced it. Matcher PathRef bindings alias the walk's scratch path
// (no per-yield copy), so any value that escapes a yield — projected
// rows, aggregate arguments, representative rows — is exported at the
// escape boundary instead: PathRef edge slices are copied (non-nil even
// for zero-hop paths), everything else is already immutable.
func exportValue(v Value) Value {
	if p, ok := v.(PathRef); ok {
		cp := make([]graph.EdgeID, len(p.Edges))
		copy(cp, p.Edges)
		p.Edges = cp
		return p
	}
	return v
}
