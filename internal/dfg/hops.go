package dfg

import "math/bits"

// Hops answers the same-level-pair queries of the Attributes Generator
// (§IV-A) and the label initialization (§V-B): the closest common ancestor
// and descendant of a pair and the shortest directed hop counts to them.
// Every distance comes from one breadth-first search per source node, run
// on first use and kept as a row of the table, so each later query from
// that source is a lookup.
//
// A Hops belongs to the one caller that built it and is not safe for
// concurrent use. Analysis stays immutable — portfolio chains share it
// across goroutines — so the rows are never cached inside it.
type Hops struct {
	an    *Analysis
	row   []int   // row[s] is the offset of s's row in dist, -1 until searched
	dist  []int32 // the rows back to back: dist[row[s]+t] is hops s→t, -1 if unreachable
	queue []int
}

// NewHops returns an empty table over an's graph.
func NewHops(an *Analysis) *Hops {
	row := make([]int, an.G.NumNodes())
	for i := range row {
		row[i] = -1
	}
	return &Hops{an: an, row: row}
}

// hops returns the shortest directed path length (in edges) from s to t,
// or 0 when t is unreachable from s.
func (h *Hops) hops(s, t int) int {
	off := h.row[s]
	if off < 0 {
		off = h.search(s)
	}
	if d := h.dist[off+t]; d > 0 {
		return int(d)
	}
	return 0
}

// search runs the breadth-first search from s over successor edges and
// records its row.
func (h *Hops) search(s int) int {
	g := h.an.G
	off := len(h.dist)
	for i := 0; i < g.NumNodes(); i++ {
		h.dist = append(h.dist, -1)
	}
	d := h.dist[off:]
	d[s] = 0
	q := append(h.queue[:0], s)
	for i := 0; i < len(q); i++ {
		v := q[i]
		for _, w := range g.Succ(v) {
			if d[w] < 0 {
				d[w] = d[v] + 1
				q = append(q, w)
			}
		}
	}
	h.queue = q
	h.row[s] = off
	return off
}

// ClosestCommonAncestor returns the common ancestor of u and v with the
// largest ASAP value (closest to the pair; the lowest node ID on ties) and
// the larger of the two hop distances from it down to u and v. ok is false
// when none exists.
func (h *Hops) ClosestCommonAncestor(u, v int) (anc, dist int, ok bool) {
	a := h.an
	anc = a.extreme(a.ancestors[u], a.ancestors[v], true)
	if anc < 0 {
		return 0, 0, false
	}
	return anc, max(h.hops(anc, u), h.hops(anc, v)), true
}

// ClosestCommonDescendant returns the common descendant of u and v with the
// smallest ASAP value (the lowest node ID on ties) and the larger of the
// two hop distances from u and v down to it.
func (h *Hops) ClosestCommonDescendant(u, v int) (desc, dist int, ok bool) {
	a := h.an
	desc = a.extreme(a.descendants[u], a.descendants[v], false)
	if desc < 0 {
		return 0, 0, false
	}
	return desc, max(h.hops(u, desc), h.hops(v, desc)), true
}

// PathNodeCount returns the number of intermediate nodes on the shortest
// directed path from s to t (path length - 1), or 0 when s and t are
// adjacent or unreachable. Dummy-edge attributes 6 and 7 use it.
func (h *Hops) PathNodeCount(s, t int) int {
	if d := h.hops(s, t); d > 1 {
		return d - 1
	}
	return 0
}

// extreme returns the node in both x and y with the largest ASAP value
// (latest) or the smallest (!latest), the lowest node ID on ties, or -1
// when x and y share no node.
func (a *Analysis) extreme(x, y bitset, latest bool) int {
	best := -1
	for i := range x {
		for w := x[i] & y[i]; w != 0; w &= w - 1 {
			c := i*64 + bits.TrailingZeros64(w)
			if best < 0 || (latest && a.ASAP[c] > a.ASAP[best]) || (!latest && a.ASAP[c] < a.ASAP[best]) {
				best = c
			}
		}
	}
	return best
}
