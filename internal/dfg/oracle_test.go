package dfg

import (
	"fmt"
	"sort"
)

// Test oracles, exported to the external tests of this directory: the
// per-pair allocating breadth-first searches the Attributes Generator and
// the label initialization ran before the BFS table (the ground truth
// TestHopsMatchesOracle compares the table against), and the sorted
// ready-list loop TopoOrder ran before its heap (TestTopoOrderMatchesOracle).
// StrictAccepts lets those tests see which path ReadJSON takes.

// TopoOrderSorted is Kahn's algorithm re-sorting the ready list before
// every pop: TopoOrder's smallest-ready-ID order and error, the slow way.
func (g *Graph) TopoOrderSorted() ([]int, error) {
	n := len(g.Nodes)
	indeg := make([]int, n)
	for v := range g.Nodes {
		indeg[v] = len(g.pred[v])
	}
	ready := make([]int, 0, n)
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			ready = append(ready, v)
		}
	}
	order := make([]int, 0, n)
	for len(ready) > 0 {
		sort.Ints(ready)
		v := ready[0]
		ready = ready[1:]
		order = append(order, v)
		for _, w := range g.succ[v] {
			indeg[w]--
			if indeg[w] == 0 {
				ready = append(ready, w)
			}
		}
	}
	if len(order) != n {
		return nil, &DefectError{Kind: DefectCycle, Msg: fmt.Sprintf("dfg %s: cycle detected", g.Name)}
	}
	return order, nil
}

// StrictAccepts reports whether ReadJSON's strict pass takes doc.
func StrictAccepts(doc string) bool {
	_, ok := decodeStrict(doc)
	return ok
}

// ClosestCommonAncestor returns the common ancestor of u and v with the
// largest ASAP value (closest to the pair) and the larger of the two hop
// distances from u and v to it. ok is false when none exists.
func (a *Analysis) ClosestCommonAncestor(u, v int) (anc, dist int, ok bool) {
	best := -1
	for w := range a.ASAP {
		if a.ancestors[u].has(w) && a.ancestors[v].has(w) {
			if best == -1 || a.ASAP[w] > a.ASAP[best] {
				best = w
			}
		}
	}
	if best == -1 {
		return 0, 0, false
	}
	du := a.hopDistanceUp(u, best)
	dv := a.hopDistanceUp(v, best)
	if dv > du {
		du = dv
	}
	return best, du, true
}

// ClosestCommonDescendant returns the common descendant of u and v with the
// smallest ASAP value and the larger hop distance from u and v to it.
func (a *Analysis) ClosestCommonDescendant(u, v int) (desc, dist int, ok bool) {
	best := -1
	for w := range a.ASAP {
		if a.descendants[u].has(w) && a.descendants[v].has(w) {
			if best == -1 || a.ASAP[w] < a.ASAP[best] {
				best = w
			}
		}
	}
	if best == -1 {
		return 0, 0, false
	}
	du := a.hopDistanceDown(u, best)
	dv := a.hopDistanceDown(v, best)
	if dv > du {
		du = dv
	}
	return best, du, true
}

// hopDistanceUp returns the shortest edge count from anc down to v (BFS over
// successor edges starting at anc, restricted to ancestors of v plus v).
func (a *Analysis) hopDistanceUp(v, anc int) int {
	return a.shortestHops(anc, v)
}

// hopDistanceDown returns the shortest edge count from v down to desc.
func (a *Analysis) hopDistanceDown(v, desc int) int {
	return a.shortestHops(v, desc)
}

// shortestHops returns the shortest directed path length (in edges) from s to
// t, or 0 if t is unreachable (callers only ask for reachable pairs).
func (a *Analysis) shortestHops(s, t int) int {
	if s == t {
		return 0
	}
	n := a.G.NumNodes()
	dist := make([]int, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[s] = 0
	queue := []int{s}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range a.G.Succ(v) {
			if dist[w] == -1 {
				dist[w] = dist[v] + 1
				if w == t {
					return dist[w]
				}
				queue = append(queue, w)
			}
		}
	}
	return 0
}

// PathNodeCount returns the number of intermediate nodes on the shortest
// directed path from s to t (path length - 1), or 0 when s and t are
// adjacent or unreachable. Dummy-edge attributes 6 and 7 use it.
func (a *Analysis) PathNodeCount(s, t int) int {
	h := a.shortestHops(s, t)
	if h <= 1 {
		return 0
	}
	return h - 1
}
