package main

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"

	"kaskade/internal/exec"
	"kaskade/internal/graph"
)

// digest is an order-independent fingerprint of a result table. Rows
// are rendered with vertices by their name property, because a vertex
// has different IDs in the base graph and in a view graph, so a correct
// answer over a view would otherwise look like a mismatch.
type digest struct {
	cols     string
	rows     int
	sum, xor uint64
}

func digestOf(res *exec.Result) digest {
	d := digest{cols: strings.Join(res.Cols, ","), rows: len(res.Rows)}
	var b []byte
	for _, row := range res.Rows {
		b = b[:0]
		for _, v := range row {
			b = appendValue(b, v)
			b = append(b, '|')
		}
		h := fnv.New64a()
		h.Write(b)
		x := h.Sum64()
		d.sum += x
		d.xor ^= x
	}
	return d
}

func (d digest) String() string {
	return fmt.Sprintf("%d rows [%s] %016x", d.rows, d.cols, d.sum)
}

// appendValue renders one value so that equal answers over different
// graphs render equally.
func appendValue(b []byte, v exec.Value) []byte {
	switch x := v.(type) {
	case nil:
		return append(b, "null"...)
	case exec.VertexRef:
		return appendVertex(b, x.G, x.ID)
	case exec.EdgeRef:
		e := x.G.Edge(x.ID)
		b = append(b, e.Type...)
		b = append(b, ':')
		b = appendVertex(b, x.G, e.From)
		b = append(b, "->"...)
		return appendVertex(b, x.G, e.To)
	case exec.PathRef:
		// A path over a view has fewer, contracted edges; only its
		// presence is comparable.
		return append(b, "path"...)
	case float64:
		return strconv.AppendFloat(b, x, 'g', 9, 64)
	case int64:
		return strconv.AppendInt(b, x, 10)
	case string:
		return strconv.AppendQuote(b, x)
	default:
		return fmt.Append(b, x)
	}
}

func appendVertex(b []byte, g *graph.Graph, id graph.VertexID) []byte {
	v := g.Vertex(id)
	return fmt.Appendf(b, "(%s %v)", v.Type, v.Prop("name"))
}
