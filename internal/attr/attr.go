// Package attr implements the paper's Attributes Generator (§IV-A): the DFG
// itself only carries operation types and dependencies, so traditional graph
// algorithms are used to enrich nodes, edges and same-level (dummy) edges
// with the structural attributes the GNN models consume.
package attr

import (
	"github.com/lisa-go/lisa/internal/dfg"
	"github.com/lisa-go/lisa/internal/labels"
)

// Attribute-vector widths; the GNN layer shapes derive from these.
const (
	NodeAttrDim  = 6
	EdgeAttrDim  = 5
	DummyAttrDim = 7
)

// Set is the full attribute set of one DFG.
type Set struct {
	An *dfg.Analysis

	// Node is NodeAttrDim attributes per node:
	// (1) ASAP, (2) in-degree, (3) out-degree, (4) ancestor count,
	// (5) descendant count, (6) operation type.
	Node [][]float64

	// Edge is EdgeAttrDim attributes per DFG edge:
	// (1) ASAP difference between child and parent,
	// (2) number of nodes between the two (by ASAP),
	// (3) number of nodes sharing the parent's or child's ASAP value,
	// (4) ancestor count of the parent, (5) descendant count of the child.
	Edge [][]float64

	// DummyPairs lists the same-level pairs; Dummy holds DummyAttrDim
	// attributes per pair:
	// (1) distance to the closest common ancestor,
	// (2) distance to the closest common descendant,
	// (3) nodes with ASAP between the ancestor and the pair,
	// (4) nodes with ASAP between the pair and the descendant,
	// (5) nodes whose ASAP equals the ancestor's, descendant's or pair's,
	// (6) nodes on the path from the pair to the ancestor,
	// (7) nodes on the path from the pair to the descendant.
	DummyPairs []labels.Pair
	Dummy      [][]float64
}

// Generate computes all attributes for g. The rows of each attribute
// matrix share one backing array, and the same-level pair distances come
// from one dfg.Hops table owned by this call.
func Generate(g *dfg.Graph) *Set {
	an := dfg.Analyze(g)
	s := &Set{An: an}

	s.Node = rows(g.NumNodes(), NodeAttrDim)
	for v := range g.Nodes {
		copy(s.Node[v], []float64{
			float64(an.ASAP[v]),
			float64(g.InDegree(v)),
			float64(g.OutDegree(v)),
			float64(an.NumAncestors(v)),
			float64(an.NumDescendants(v)),
			float64(g.Nodes[v].Op),
		})
	}

	s.Edge = rows(g.NumEdges(), EdgeAttrDim)
	for i, e := range g.Edges {
		sameLevel := an.NodesAtLevel(an.ASAP[e.From]) + an.NodesAtLevel(an.ASAP[e.To])
		copy(s.Edge[i], []float64{
			float64(an.ASAP[e.To] - an.ASAP[e.From]),
			float64(an.NodesBetween(e.From, e.To)),
			float64(sameLevel),
			float64(an.NumAncestors(e.From)),
			float64(an.NumDescendants(e.To)),
		})
	}

	pairs := an.SameLevelPairs()
	if len(pairs) == 0 {
		return s
	}
	hops := dfg.NewHops(an)
	s.DummyPairs = make([]labels.Pair, len(pairs))
	s.Dummy = rows(len(pairs), DummyAttrDim)
	for i, p := range pairs {
		lvl := an.ASAP[p.A]
		var distAnc, distDesc float64
		var betweenAnc, betweenDesc, equalCount float64
		var pathAnc, pathDesc float64

		equalCount = float64(an.NodesAtLevel(lvl))
		if anc, d, ok := hops.ClosestCommonAncestor(p.A, p.B); ok {
			distAnc = float64(d)
			betweenAnc = float64(an.NodesWithASAPBetween(an.ASAP[anc], lvl))
			if an.ASAP[anc] != lvl {
				equalCount += float64(an.NodesAtLevel(an.ASAP[anc]))
			}
			pathAnc = float64(hops.PathNodeCount(anc, p.A) + hops.PathNodeCount(anc, p.B))
		}
		if desc, d, ok := hops.ClosestCommonDescendant(p.A, p.B); ok {
			distDesc = float64(d)
			betweenDesc = float64(an.NodesWithASAPBetween(lvl, an.ASAP[desc]))
			if an.ASAP[desc] != lvl {
				equalCount += float64(an.NodesAtLevel(an.ASAP[desc]))
			}
			pathDesc = float64(hops.PathNodeCount(p.A, desc) + hops.PathNodeCount(p.B, desc))
		}
		s.DummyPairs[i] = labels.MakePair(p.A, p.B)
		copy(s.Dummy[i], []float64{
			distAnc, distDesc, betweenAnc, betweenDesc, equalCount, pathAnc, pathDesc,
		})
	}
	return s
}

// rows returns n rows of width dim carved from one backing array, each
// capped at its own width.
func rows(n, dim int) [][]float64 {
	back := make([]float64, n*dim)
	out := make([][]float64, n)
	for i := range out {
		out[i] = back[i*dim : (i+1)*dim : (i+1)*dim]
	}
	return out
}
