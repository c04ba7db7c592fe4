package views

import (
	"fmt"
	"runtime"

	"kaskade/internal/graph"
	"kaskade/internal/par"
)

// KHopConnector contracts every k-length (edge-unique) path between a
// vertex of SrcType and a vertex of DstType into a single edge (Table I,
// "k-hop connector"; Fig. 3's running example is the job-to-job K=2
// instance). An empty SrcType/DstType matches any vertex type
// (vertex-to-vertex connectors on homogeneous graphs).
type KHopConnector struct {
	SrcType string
	DstType string
	K       int
	// EdgeTypes restricts which edge types paths may traverse (nil = any).
	EdgeTypes []string
	// DedupPairs collapses parallel connector edges (one edge per
	// reachable pair instead of one per path).
	DedupPairs bool
}

var _ EstimatableView = KHopConnector{}
var _ ParallelView = KHopConnector{}

// Name returns the connector's identifier, which doubles as the
// contracted edge's type, e.g. CONN_2HOP_Job_Job.
func (c KHopConnector) Name() string {
	st, dt := c.SrcType, c.DstType
	if st == "" {
		st = "ANY"
	}
	if dt == "" {
		dt = "ANY"
	}
	return fmt.Sprintf("CONN_%dHOP_%s_%s", c.K, st, dt)
}

// Kind reports connector.
func (c KHopConnector) Kind() Kind { return KindConnector }

// PathLength returns k.
func (c KHopConnector) PathLength() int { return c.K }

// Describe returns a Table I style description.
func (c KHopConnector) Describe() string {
	return fmt.Sprintf("%d-hop connector %s->%s (one edge per contracted %d-length path)",
		c.K, orAny(c.SrcType), orAny(c.DstType), c.K)
}

// Cypher renders the defining pattern — the canonical DDL body where
// the connector is DDL-expressible (it compiles back to this view), the
// plain contraction pattern otherwise.
func (c KHopConnector) Cypher() string {
	if p, err := CanonicalPattern(c); err == nil {
		return p
	}
	return fmt.Sprintf("MATCH (x%s)-[p*%d..%d]->(y%s) RETURN x, y",
		colonType(c.SrcType), c.K, c.K, colonType(c.DstType))
}

// Materialize builds the connector view graph: all vertices of the
// endpoint types plus one contracted edge per k-length path. The
// contracted edge aggregates path properties: ts = max constituent ts
// (so per-path max-timestamp queries keep working), hops = k.
func (c KHopConnector) Materialize(g *graph.Graph) (*graph.Graph, error) {
	return c.MaterializeParallel(g, 1)
}

// sourceChunkTarget is the number of source chunks created per worker
// during parallel materialization: enough over-decomposition that fast
// workers steal the tail when hub sources concentrate the path count.
const sourceChunkTarget = 16

// connEdge is one contracted edge found by the per-source path search,
// already in view-graph coordinates, buffered until the ordered merge.
type connEdge struct {
	from, to graph.VertexID
	ts       int64
	hops     int64
}

// pairAdder builds the merge-side edge sink every connector class
// shares: optional pair dedup, then one contracted edge carrying the
// aggregated path properties. Pair dedup lives here — on the single
// goroutine that sees edges in sequential order — because skipping a
// duplicate never changes the path search itself, only whether the
// edge lands.
func pairAdder(out *graph.Graph, name string, dedupPairs bool) func(connEdge) error {
	seenPair := make(map[[2]graph.VertexID]bool)
	return func(e connEdge) error {
		if dedupPairs {
			key := [2]graph.VertexID{e.from, e.to}
			if seenPair[key] {
				return nil
			}
			seenPair[key] = true
		}
		_, err := out.AddEdge(e.from, e.to, name, graph.Properties{
			"ts":   e.ts,
			"hops": e.hops,
		})
		return err
	}
}

// materializeBySource is the execution shape all connector classes
// share: an independent path enumeration per source vertex whose
// emitted edges must land in source order. With workers <= 1 (or a
// single source) it runs inline, handing each emitted edge straight to
// add. Otherwise sources are partitioned into contiguous chunks, each
// worker enumerates its chunk's paths into a buffer (the base graph
// and any remap table are read-only by then), and the calling
// goroutine merges buffers in chunk order — so edge insertion order,
// pair dedup, and therefore the whole view graph are byte-identical to
// the sequential build. Only the merge touches the view graph, so add
// needs no locking.
//
// numEdges sizes the edge-uniqueness set: a dense []bool indexed by
// EdgeID (the DFS unwinds its own marks, so one set serves a worker's
// whole chunk sequence). enumerate must confine its mutation to that
// set — every bit it sets must be cleared again on return — and may
// only fail by propagating emit's error, the contract that makes
// buffered emits infallible.
func materializeBySource(sources []graph.VertexID, numEdges, workers int,
	enumerate func(s graph.VertexID, used []bool, emit func(connEdge) error) error,
	add func(connEdge) error) error {
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers <= 1 || len(sources) < 2 {
		used := make([]bool, numEdges)
		for _, s := range sources {
			if err := enumerate(s, used, add); err != nil {
				return err
			}
		}
		return nil
	}
	chunkSize, numChunks := par.Chunks(len(sources), workers, sourceChunkTarget)
	chunks := make([][]connEdge, numChunks)
	par.Do(numChunks, workers, func(next func() (int, bool)) {
		// One edge-uniqueness set per worker, unwound between sources.
		used := make([]bool, numEdges)
		for {
			ci, ok := next()
			if !ok {
				return
			}
			lo := ci * chunkSize
			hi := min(lo+chunkSize, len(sources))
			var buf []connEdge
			for _, s := range sources[lo:hi] {
				// The buffering emit cannot fail, and enumerate only
				// propagates emit errors.
				_ = enumerate(s, used, func(e connEdge) error {
					buf = append(buf, e)
					return nil
				})
			}
			chunks[ci] = buf
		}
	})
	for _, buf := range chunks {
		for _, e := range buf {
			if err := add(e); err != nil {
				return err
			}
		}
	}
	return nil
}

// MaterializeParallel is Materialize with the per-source DFS fan-out
// spread over up to `workers` goroutines (0 or 1 = sequential,
// negative = one per available CPU); see materializeBySource for the
// determinism argument.
func (c KHopConnector) MaterializeParallel(g *graph.Graph, workers int) (*graph.Graph, error) {
	if c.K < 1 {
		return nil, fmt.Errorf("views: k-hop connector needs K >= 1, got %d", c.K)
	}
	if err := validateTypes(g, c.SrcType, c.DstType); err != nil {
		return nil, err
	}
	schema, err := connectorSchema(g, c.SrcType, c.DstType, c.Name())
	if err != nil {
		return nil, err
	}
	out := graph.NewGraph(schema)
	var keepTypes []string
	if c.SrcType != "" && c.DstType != "" {
		keepTypes = []string{c.SrcType, c.DstType}
	}
	remap, err := copyVerticesOfTypes(g, out, keepTypes)
	if err != nil {
		return nil, err
	}
	f := g.Freeze()
	enumerate := func(s graph.VertexID, used []bool, emit func(connEdge) error) error {
		return c.pathsFrom(f, s, used, func(at graph.VertexID, ts int64) error {
			return emit(connEdge{from: remap[s], to: remap[at], ts: ts, hops: int64(c.K)})
		})
	}
	if err := materializeBySource(sourceIDs(g, c.SrcType), g.NumEdges(), workers, enumerate, pairAdder(out, c.Name(), c.DedupPairs)); err != nil {
		return nil, err
	}
	return out, nil
}

// pathsFrom runs the edge-unique DFS enumerating every k-length path
// from s whose hops satisfy the connector's edge filter, calling emit
// with each path's endpoint and aggregated max timestamp, in DFS
// (= sequential materialization) order. The traversal runs on the
// frozen CSR view: with a single allowed edge type the step reads the
// contiguous typed group (the insertion-order subsequence, so emit
// order is unchanged); otherwise it filters the flat row against the
// type label array. used must be all-false on entry and is unwound on
// return, so callers reuse it across sources.
func (c KHopConnector) pathsFrom(f *graph.Frozen, s graph.VertexID, used []bool, emit func(at graph.VertexID, ts int64) error) error {
	var allowEdge func(string) bool // nil = every type allowed
	single := ""
	switch len(c.EdgeTypes) {
	case 0:
	case 1:
		single = c.EdgeTypes[0]
	default:
		allowEdge = edgeTypeFilter(c.EdgeTypes)
	}
	var dfs func(at graph.VertexID, hops int, maxTS int64) error
	dfs = func(at graph.VertexID, hops int, maxTS int64) error {
		if hops == c.K {
			if c.DstType != "" && f.VertexTypeOf(at) != c.DstType {
				return nil
			}
			return emit(at, maxTS)
		}
		edges := f.Out(at)
		if single != "" {
			edges = f.OutOfType(at, single)
		}
		for _, eid := range edges {
			if used[eid] {
				continue
			}
			if allowEdge != nil && !allowEdge(f.EdgeTypeOf(eid)) {
				continue
			}
			used[eid] = true
			err := dfs(f.To(eid), hops+1, maxInt64(maxTS, tsOf(f.Edge(eid))))
			used[eid] = false
			if err != nil {
				return err
			}
		}
		return nil
	}
	return dfs(s, 0, 0)
}

// SameVertexTypeConnector contracts directed paths (up to MaxLen hops)
// whose endpoints are both of VType and whose intermediate vertices are
// not (Table I, "same-vertex-type connector"): e.g. author-paper-author
// becomes author-author regardless of intermediate hops.
type SameVertexTypeConnector struct {
	VType      string
	MaxLen     int // cap on contracted path length; required (>0)
	DedupPairs bool
}

var _ View = SameVertexTypeConnector{}
var _ ParallelView = SameVertexTypeConnector{}

// Name returns e.g. CONN_SAMEVT_Author.
func (c SameVertexTypeConnector) Name() string {
	return fmt.Sprintf("CONN_SAMEVT_%s", c.VType)
}

// Kind reports connector.
func (c SameVertexTypeConnector) Kind() Kind { return KindConnector }

// Describe returns a Table I style description.
func (c SameVertexTypeConnector) Describe() string {
	return fmt.Sprintf("same-vertex-type connector over %s (paths up to %d hops, no intermediate %s)",
		c.VType, c.MaxLen, c.VType)
}

// Cypher renders the defining pattern (the canonical DDL body where
// DDL-expressible; see KHopConnector.Cypher).
func (c SameVertexTypeConnector) Cypher() string {
	if p, err := CanonicalPattern(c); err == nil {
		return p
	}
	return fmt.Sprintf("MATCH (x:%s)-[p*1..%d]->(y:%s) RETURN x, y", c.VType, c.MaxLen, c.VType)
}

// Materialize contracts each qualifying path into one edge.
func (c SameVertexTypeConnector) Materialize(g *graph.Graph) (*graph.Graph, error) {
	return c.MaterializeParallel(g, 1)
}

// MaterializeParallel is Materialize with the per-source DFS fanned out
// over up to `workers` goroutines, byte-identical to the sequential
// build (see materializeBySource).
func (c SameVertexTypeConnector) MaterializeParallel(g *graph.Graph, workers int) (*graph.Graph, error) {
	if c.VType == "" || c.MaxLen < 1 {
		return nil, fmt.Errorf("views: same-vertex-type connector needs a type and MaxLen >= 1")
	}
	if err := validateTypes(g, c.VType); err != nil {
		return nil, err
	}
	schema, err := connectorSchema(g, c.VType, c.VType, c.Name())
	if err != nil {
		return nil, err
	}
	out := graph.NewGraph(schema)
	remap, err := copyVerticesOfTypes(g, out, []string{c.VType})
	if err != nil {
		return nil, err
	}
	f := g.Freeze()
	enumerate := func(s graph.VertexID, used []bool, emit func(connEdge) error) error {
		var dfs func(at graph.VertexID, hops int, maxTS int64) error
		dfs = func(at graph.VertexID, hops int, maxTS int64) error {
			if hops > 0 && f.VertexTypeOf(at) == c.VType {
				// The path ends at the first same-type vertex.
				return emit(connEdge{from: remap[s], to: remap[at], ts: maxTS, hops: int64(hops)})
			}
			if hops == c.MaxLen {
				return nil
			}
			for _, eid := range f.Out(at) {
				if used[eid] {
					continue
				}
				used[eid] = true
				err := dfs(f.To(eid), hops+1, maxInt64(maxTS, tsOf(f.Edge(eid))))
				used[eid] = false
				if err != nil {
					return err
				}
			}
			return nil
		}
		return dfs(s, 0, 0)
	}
	if err := materializeBySource(g.VerticesOfType(c.VType), g.NumEdges(), workers, enumerate, pairAdder(out, c.Name(), c.DedupPairs)); err != nil {
		return nil, err
	}
	return out, nil
}

// SameEdgeTypeConnector contracts maximal directed paths made of a single
// edge type into one edge (Table I, "same-edge-type connector"), e.g.
// chains of task TRANSFERS_TO edges.
type SameEdgeTypeConnector struct {
	EType      string
	MaxLen     int
	DedupPairs bool
}

var _ View = SameEdgeTypeConnector{}
var _ ParallelView = SameEdgeTypeConnector{}

// Name returns e.g. CONN_SAMEET_TRANSFERS_TO.
func (c SameEdgeTypeConnector) Name() string {
	return fmt.Sprintf("CONN_SAMEET_%s", c.EType)
}

// Kind reports connector.
func (c SameEdgeTypeConnector) Kind() Kind { return KindConnector }

// Describe returns a Table I style description.
func (c SameEdgeTypeConnector) Describe() string {
	return fmt.Sprintf("same-edge-type connector over %s paths up to %d hops", c.EType, c.MaxLen)
}

// Cypher renders the defining pattern (the canonical DDL body where
// DDL-expressible; see KHopConnector.Cypher).
func (c SameEdgeTypeConnector) Cypher() string {
	if p, err := CanonicalPattern(c); err == nil {
		return p
	}
	return fmt.Sprintf("MATCH (x)-[p:%s*1..%d]->(y) RETURN x, y", c.EType, c.MaxLen)
}

// Materialize contracts each path of EType edges (length 1..MaxLen).
func (c SameEdgeTypeConnector) Materialize(g *graph.Graph) (*graph.Graph, error) {
	return c.MaterializeParallel(g, 1)
}

// MaterializeParallel is Materialize with the per-source DFS fanned out
// over up to `workers` goroutines, byte-identical to the sequential
// build (see materializeBySource).
func (c SameEdgeTypeConnector) MaterializeParallel(g *graph.Graph, workers int) (*graph.Graph, error) {
	if c.EType == "" || c.MaxLen < 1 {
		return nil, fmt.Errorf("views: same-edge-type connector needs an edge type and MaxLen >= 1")
	}
	out := graph.NewGraph(nil)
	remap, err := copyVerticesOfTypes(g, out, nil)
	if err != nil {
		return nil, err
	}
	// The single-edge-type walk is the typed-adjacency showcase: every
	// DFS step reads the contiguous (vertex, EType) group — the
	// insertion-order subsequence a per-edge type filter produces — so
	// no edge of another type is even looked at.
	f := g.Freeze()
	enumerate := func(s graph.VertexID, used []bool, emit func(connEdge) error) error {
		var dfs func(at graph.VertexID, hops int, maxTS int64) error
		dfs = func(at graph.VertexID, hops int, maxTS int64) error {
			if hops > 0 {
				// Every prefix of a chain is itself a contracted path;
				// keep extending after emitting.
				if err := emit(connEdge{from: remap[s], to: remap[at], ts: maxTS, hops: int64(hops)}); err != nil {
					return err
				}
			}
			if hops == c.MaxLen {
				return nil
			}
			for _, eid := range f.OutOfType(at, c.EType) {
				if used[eid] {
					continue
				}
				used[eid] = true
				err := dfs(f.To(eid), hops+1, maxInt64(maxTS, tsOf(f.Edge(eid))))
				used[eid] = false
				if err != nil {
					return err
				}
			}
			return nil
		}
		return dfs(s, 0, 0)
	}
	if err := materializeBySource(sourceIDs(g, ""), g.NumEdges(), workers, enumerate, pairAdder(out, c.Name(), c.DedupPairs)); err != nil {
		return nil, err
	}
	return out, nil
}

// SourceToSinkConnector contracts paths from source vertices (no
// incoming edges) to sink vertices (no outgoing edges) — Table I's last
// row, useful for end-to-end lineage.
type SourceToSinkConnector struct {
	MaxLen     int
	DedupPairs bool
}

var _ View = SourceToSinkConnector{}
var _ ParallelView = SourceToSinkConnector{}

// Name returns CONN_SRCSINK.
func (c SourceToSinkConnector) Name() string { return "CONN_SRCSINK" }

// Kind reports connector.
func (c SourceToSinkConnector) Kind() Kind { return KindConnector }

// Describe returns a Table I style description.
func (c SourceToSinkConnector) Describe() string {
	return fmt.Sprintf("source-to-sink connector (paths up to %d hops from in-degree-0 to out-degree-0 vertices)", c.MaxLen)
}

// Cypher renders the defining pattern (the canonical DDL body where
// DDL-expressible; the INDEGREE/OUTDEGREE predicate in the WHERE clause
// is the class marker the view compiler recognizes).
func (c SourceToSinkConnector) Cypher() string {
	if p, err := CanonicalPattern(c); err == nil {
		return p
	}
	return fmt.Sprintf("MATCH (x)-[p*1..%d]->(y) RETURN x, y -- WHERE indeg(x)=0 AND outdeg(y)=0", c.MaxLen)
}

// Materialize contracts each source-to-sink path.
func (c SourceToSinkConnector) Materialize(g *graph.Graph) (*graph.Graph, error) {
	return c.MaterializeParallel(g, 1)
}

// MaterializeParallel is Materialize with the per-source DFS fanned out
// over up to `workers` goroutines, byte-identical to the sequential
// build (see materializeBySource).
func (c SourceToSinkConnector) MaterializeParallel(g *graph.Graph, workers int) (*graph.Graph, error) {
	if c.MaxLen < 1 {
		return nil, fmt.Errorf("views: source-to-sink connector needs MaxLen >= 1")
	}
	out := graph.NewGraph(nil)
	remap, err := copyVerticesOfTypes(g, out, nil)
	if err != nil {
		return nil, err
	}
	// Only true sources (in-degree 0, at least one outgoing edge) seed
	// the search; filtering up front keeps the chunk partition balanced
	// over real work.
	f := g.Freeze()
	var sources []graph.VertexID
	for s := 0; s < f.NumVertices(); s++ {
		id := graph.VertexID(s)
		if f.InDegree(id) == 0 && f.OutDegree(id) > 0 {
			sources = append(sources, id)
		}
	}
	enumerate := func(s graph.VertexID, used []bool, emit func(connEdge) error) error {
		var dfs func(at graph.VertexID, hops int, maxTS int64) error
		dfs = func(at graph.VertexID, hops int, maxTS int64) error {
			if hops > 0 && f.OutDegree(at) == 0 {
				return emit(connEdge{from: remap[s], to: remap[at], ts: maxTS, hops: int64(hops)})
			}
			if hops == c.MaxLen {
				return nil
			}
			for _, eid := range f.Out(at) {
				if used[eid] {
					continue
				}
				used[eid] = true
				err := dfs(f.To(eid), hops+1, maxInt64(maxTS, tsOf(f.Edge(eid))))
				used[eid] = false
				if err != nil {
					return err
				}
			}
			return nil
		}
		return dfs(s, 0, 0)
	}
	if err := materializeBySource(sources, g.NumEdges(), workers, enumerate, pairAdder(out, c.Name(), c.DedupPairs)); err != nil {
		return nil, err
	}
	return out, nil
}

// CountKHopPaths counts the k-length (edge-unique) directed paths from
// srcType vertices to dstType vertices ("" = any) without materializing
// the connector — the "actual" series of Fig. 5 at sizes where building
// the parallel-edge view graph would be wasteful. By §V-A this count
// equals the edge count of the corresponding k-hop connector.
func CountKHopPaths(g *graph.Graph, srcType, dstType string, k int) int64 {
	if k < 1 {
		return 0
	}
	f := g.Freeze()
	var count int64
	used := make([]bool, g.NumEdges())
	var dfs func(at graph.VertexID, hops int)
	dfs = func(at graph.VertexID, hops int) {
		if hops == k {
			if dstType == "" || f.VertexTypeOf(at) == dstType {
				count++
			}
			return
		}
		for _, eid := range f.Out(at) {
			if used[eid] {
				continue
			}
			used[eid] = true
			dfs(f.To(eid), hops+1)
			used[eid] = false
		}
	}
	for _, s := range sourceIDs(g, srcType) {
		dfs(s, 0)
	}
	return count
}

// --- helpers ---

func orAny(t string) string {
	if t == "" {
		return "ANY"
	}
	return t
}

func colonType(t string) string {
	if t == "" {
		return ""
	}
	return ":" + t
}

// connectorSchema builds the view graph's schema: the endpoint types plus
// the contracted edge type. Unconstrained graphs stay unconstrained.
// Property declarations for the kept endpoint types carry over, so a
// query rewritten over the view keeps its schema-proved typing.
func connectorSchema(g *graph.Graph, src, dst, edgeName string) (*graph.Schema, error) {
	if g.Schema() == nil || src == "" || dst == "" {
		return nil, nil
	}
	s, err := graph.NewSchema(
		dedupeStrings([]string{src, dst}),
		[]graph.EdgeType{{From: src, To: dst, Name: edgeName}},
	)
	if err != nil {
		return nil, err
	}
	s.AdoptProperties(g.Schema())
	return s, nil
}

func dedupeStrings(in []string) []string {
	seen := make(map[string]bool, len(in))
	var out []string
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// edgeTypeFilter returns a predicate accepting the listed edge types
// (everything when the list is empty).
func edgeTypeFilter(types []string) func(string) bool {
	if len(types) == 0 {
		return func(string) bool { return true }
	}
	set := make(map[string]bool, len(types))
	for _, t := range types {
		set[t] = true
	}
	return func(t string) bool { return set[t] }
}

// sourceIDs returns the vertices the path search starts from.
func sourceIDs(g *graph.Graph, srcType string) []graph.VertexID {
	if srcType != "" {
		return g.VerticesOfType(srcType)
	}
	ids := make([]graph.VertexID, g.NumVertices())
	for i := range ids {
		ids[i] = graph.VertexID(i)
	}
	return ids
}
