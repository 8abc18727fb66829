package dfg

import "fmt"

// Unroll replicates the DFG body factor times, modelling loop unrolling of
// the kernel (the paper evaluates unrolling factor 2). Replicas of constant
// (loop-invariant) nodes are shared rather than duplicated — a compiler would
// merge them as common subexpressions — and consecutive iterations are
// chained through their memory accesses: the i-th replica's first load
// depends on the (i-1)-th replica's first store address chain only via the
// shared constants, so replicas stay weakly connected through the shared
// invariants. When a body has no constant node, a synthetic shared index
// constant is introduced.
func Unroll(g *Graph, factor int) *Graph {
	if factor < 1 {
		panic("dfg: unroll factor must be >= 1")
	}
	if factor == 1 {
		return g.Clone()
	}
	out := New(fmt.Sprintf("%s_u%d", g.Name, factor))

	// Shared constants: one copy for all iterations.
	shared := make(map[int]int) // original const node -> new ID
	for _, n := range g.Nodes {
		if n.Op == OpConst {
			shared[n.ID] = out.AddNode(n.Name, OpConst)
		}
	}
	anchor := -1
	if len(shared) == 0 {
		anchor = out.AddNode("iv", OpConst)
	}

	for it := 0; it < factor; it++ {
		remap := make(map[int]int, g.NumNodes())
		//lisa:vet-ok maprange map-to-map copy; remap's content is independent of insertion order
		for orig, sh := range shared {
			remap[orig] = sh
		}
		for _, n := range g.Nodes {
			if n.Op == OpConst {
				continue
			}
			remap[n.ID] = out.AddNode(fmt.Sprintf("%s_i%d", n.Name, it), n.Op)
		}
		for _, e := range g.Edges {
			out.AddEdge(remap[e.From], remap[e.To])
		}
		if anchor >= 0 {
			// Tie each iteration to the synthetic induction variable so the
			// unrolled graph stays weakly connected.
			for _, n := range g.Nodes {
				if g.InDegree(n.ID) == 0 {
					out.AddEdge(anchor, remap[n.ID])
				}
			}
		}
	}
	return out
}
