package dfg

import "math/bits"

// Analysis caches the structural properties of a DFG that the Attributes
// Generator (paper §IV-A), the label machinery and the mappers all consume:
// ASAP/ALAP levels, ancestor/descendant sets, and the critical-path length.
// Build one with Analyze; it is immutable afterwards.
type Analysis struct {
	G *Graph

	// ASAP holds each node's as-soon-as-possible level: source nodes are 0,
	// every other node is 1 + max over predecessors. The paper uses ASAP as
	// the base scheduling order and as a node attribute.
	ASAP []int

	// ALAP holds each node's as-late-as-possible level measured on the same
	// scale as ASAP (sinks sit at CriticalPath).
	ALAP []int

	// CriticalPath is the number of nodes on the longest dependency chain
	// minus one, i.e. max(ASAP). The paper normalizes the schedule-order
	// label to "the length of the longest path".
	CriticalPath int

	// Topo is a deterministic topological order.
	Topo []int

	ancestors   []bitset // transitive predecessors, one bitset per node
	descendants []bitset // transitive successors
	below       []int    // below[l] counts the nodes with ASAP < l, for l in [0, CriticalPath+1]
}

// bitset is a fixed-width bit vector over node IDs.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int)      { b[i/64] |= 1 << (uint(i) % 64) }
func (b bitset) has(i int) bool { return b[i/64]&(1<<(uint(i)%64)) != 0 }

func (b bitset) or(o bitset) {
	for i := range b {
		b[i] |= o[i]
	}
}

func (b bitset) count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// intersects reports whether b and o share any set bit.
func (b bitset) intersects(o bitset) bool {
	for i := range b {
		if b[i]&o[i] != 0 {
			return true
		}
	}
	return false
}

// Analyze computes the cached structural analysis of g. It panics if g is
// cyclic (Validate catches that earlier in every pipeline).
func Analyze(g *Graph) *Analysis {
	topo, err := g.TopoOrder()
	if err != nil {
		panic(err)
	}
	n := g.NumNodes()
	a := &Analysis{
		G:           g,
		ASAP:        make([]int, n),
		ALAP:        make([]int, n),
		Topo:        topo,
		ancestors:   make([]bitset, n),
		descendants: make([]bitset, n),
	}

	for _, v := range topo {
		lvl := 0
		for _, p := range g.Pred(v) {
			if a.ASAP[p]+1 > lvl {
				lvl = a.ASAP[p] + 1
			}
		}
		a.ASAP[v] = lvl
		if lvl > a.CriticalPath {
			a.CriticalPath = lvl
		}
	}

	a.below = make([]int, a.CriticalPath+2)
	for _, l := range a.ASAP {
		a.below[l+1]++
	}
	for l := 1; l < len(a.below); l++ {
		a.below[l] += a.below[l-1]
	}

	for i := range a.ALAP {
		a.ALAP[i] = a.CriticalPath
	}
	for i := len(topo) - 1; i >= 0; i-- {
		v := topo[i]
		for _, s := range g.Succ(v) {
			if a.ALAP[s]-1 < a.ALAP[v] {
				a.ALAP[v] = a.ALAP[s] - 1
			}
		}
	}

	for _, v := range topo {
		b := newBitset(n)
		for _, p := range g.Pred(v) {
			b.set(p)
			b.or(a.ancestors[p])
		}
		a.ancestors[v] = b
	}
	for i := len(topo) - 1; i >= 0; i-- {
		v := topo[i]
		b := newBitset(n)
		for _, s := range g.Succ(v) {
			b.set(s)
			b.or(a.descendants[s])
		}
		a.descendants[v] = b
	}
	return a
}

// NumAncestors returns the number of transitive predecessors of v
// (node attribute 4 in §IV-A).
func (a *Analysis) NumAncestors(v int) int { return a.ancestors[v].count() }

// NumDescendants returns the number of transitive successors of v
// (node attribute 5 in §IV-A).
func (a *Analysis) NumDescendants(v int) int { return a.descendants[v].count() }

// IsAncestor reports whether u is a transitive predecessor of v.
func (a *Analysis) IsAncestor(u, v int) bool { return a.ancestors[v].has(u) }

// IsDescendant reports whether u is a transitive successor of v.
func (a *Analysis) IsDescendant(u, v int) bool { return a.descendants[v].has(u) }

// HaveCommonAncestor reports whether u and v share a transitive predecessor.
func (a *Analysis) HaveCommonAncestor(u, v int) bool {
	return a.ancestors[u].intersects(a.ancestors[v])
}

// HaveCommonDescendant reports whether u and v share a transitive successor.
func (a *Analysis) HaveCommonDescendant(u, v int) bool {
	return a.descendants[u].intersects(a.descendants[v])
}

// NodesBetween counts the nodes whose ASAP value lies strictly between the
// ASAP values of u and v (edge attribute 2 in §IV-A).
func (a *Analysis) NodesBetween(u, v int) int {
	lo, hi := a.ASAP[u], a.ASAP[v]
	if lo > hi {
		lo, hi = hi, lo
	}
	return a.NodesWithASAPBetween(lo, hi)
}

// NodesAtLevel counts the nodes whose ASAP value equals lvl.
func (a *Analysis) NodesAtLevel(lvl int) int {
	return a.NodesWithASAPBetween(lvl-1, lvl+1)
}

// NodesWithASAPBetween counts nodes with lo < ASAP < hi.
func (a *Analysis) NodesWithASAPBetween(lo, hi int) int {
	lo = max(lo+1, 0)
	hi = min(hi, len(a.below)-1)
	if hi <= lo {
		return 0
	}
	return a.below[hi] - a.below[lo]
}

// SameLevelPair describes two nodes with equal ASAP value, no direct
// dependency, and a common ancestor or descendant — the endpoints of a dummy
// edge (paper §III-A, label 2).
type SameLevelPair struct {
	A, B int
}

// SameLevelPairs enumerates all dummy edges of the DFG in deterministic
// (A,B) order with A < B.
func (a *Analysis) SameLevelPairs() []SameLevelPair {
	var pairs []SameLevelPair
	n := a.G.NumNodes()
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if a.ASAP[u] != a.ASAP[v] {
				continue
			}
			// Same ASAP value implies no direct dependency.
			if a.HaveCommonAncestor(u, v) || a.HaveCommonDescendant(u, v) {
				pairs = append(pairs, SameLevelPair{A: u, B: v})
			}
		}
	}
	return pairs
}
