package rgraph

import "math/bits"

// The router finds a minimum-cost path of *exactly* K hops from a producer FU
// to a consumer FU. Exactness matters for modulo scheduling correctness: an
// operation placed at absolute cycle T occupies resources at T mod II, and an
// edge u→v must deliver its value in exactly T_v − T_u cycles so that every
// firing of v combines operands of the same loop iteration. "Waiting" is
// expressed inside the resource graph itself (register self-chains, or a
// value circling through FUs), so exact-length paths exist whenever the
// architecture has buffering to spare.
//
// Cost model: entering a resource that already carries the same signal is
// free (fan-out sharing and deliberate loops), entering a fresh resource
// costs 1. Because every step costs exactly 0 or 1, the search is a 0-1 BFS
// over (resource, hops-done) states: a deque replaces the Dijkstra heap
// (free steps go to the front, paying steps to the back), which removes both
// the log factor and the per-push interface{} boxing of container/heap.
// The heap-based Dijkstra survives as routeDijkstra (route_dijkstra_test.go)
// — the reference implementation the differential tests and benchmarks
// compare against.
//
// Tie-breaking is explicit and deterministic: among equal-cost paths the
// winner is fixed by (a) the immutable adjacency order of Graph.Out, (b) the
// strict-improvement rule (a state's predecessor is only rewritten when the
// new cost is strictly lower), and (c) the FIFO/LIFO discipline of the deque.
// Equal inputs therefore always produce byte-identical paths — the property
// the equal-seed mapper invariants build on. The chosen path can differ from
// the heap Dijkstra's pick at equal cost, which is why experiment tables
// regenerated across the router switch may shift by a tie.

// Router performs exact-length routes over one resource graph. It reuses
// scratch buffers across calls; a Router is not safe for concurrent use.
type Router struct {
	g *Graph

	// MaxHops bounds route length; states beyond it are not explored.
	// It is fixed at construction; do not modify.
	MaxHops int

	// A search state (node, hops done) is node<<shift | done: the stride is
	// MaxHops+1 rounded up to a power of two, so decoding a popped state is
	// a shift and a mask rather than an integer division.
	shift   uint
	mask    int32
	routeOK []bool // Nodes[n].RouteOK, dense
	// toDst[dst][n] is a lower bound on the hops from n to dst whatever the
	// occupancy (see column); filled per dst on first use.
	toDst [][]uint8
	dist  []int32
	stamp []uint32
	prev  []int32
	epoch uint32
	dq    deque32
	bfsq  []int32 // reachability queue scratch
	slab  []int   // unused tail of the chunk that returned paths are carved from
}

// pathSlab is the chunk size, in path entries, that Route carves paths from.
const pathSlab = 256

// NewRouter creates a router for g with the given hop bound.
func NewRouter(g *Graph, maxHops int) *Router {
	if maxHops < 1 {
		maxHops = 1
	}
	shift := uint(bits.Len(uint(maxHops)))
	size := g.NumNodes() << shift
	r := &Router{
		g:       g,
		MaxHops: maxHops,
		shift:   shift,
		mask:    int32(1)<<shift - 1,
		routeOK: make([]bool, g.NumNodes()),
		toDst:   make([][]uint8, g.NumNodes()),
		dist:    make([]int32, size),
		stamp:   make([]uint32, size),
		prev:    make([]int32, size),
	}
	for i := range g.Nodes {
		r.routeOK[i] = g.Nodes[i].RouteOK
	}
	return r
}

// deque32 is an allocation-free ring-buffer deque of int32 states. Its
// length is a power of two, so wrapping is a mask; it grows geometrically
// and keeps its backing array across resets.
type deque32 struct {
	buf  []int32
	head int32 // index of the front element
	n    int32 // element count
}

func (d *deque32) reset() { d.head, d.n = 0, 0 }

func (d *deque32) grow() {
	nb := make([]int32, max(4*len(d.buf), 64))
	mask := int32(len(d.buf) - 1)
	for i := int32(0); i < d.n; i++ {
		nb[i] = d.buf[(d.head+i)&mask]
	}
	d.buf = nb
	d.head = 0
}

func (d *deque32) pushFront(v int32) {
	if int(d.n) == len(d.buf) {
		d.grow()
	}
	d.head = (d.head - 1) & int32(len(d.buf)-1)
	d.buf[d.head] = v
	d.n++
}

func (d *deque32) pushBack(v int32) {
	if int(d.n) == len(d.buf) {
		d.grow()
	}
	d.buf[(d.head+d.n)&int32(len(d.buf)-1)] = v
	d.n++
}

func (d *deque32) popFront() int32 {
	v := d.buf[d.head]
	d.head = (d.head + 1) & int32(len(d.buf)-1)
	d.n--
	return v
}

// Route searches for an exact hops-length path from src to dst for signal
// sig, honouring occ. The returned path has hops+1 node IDs including src and
// dst; ok is false when no such path exists within the router's hop bound.
// The path is NOT committed; call Commit to occupy it.
//
//lisa:hotpath every edge the annealer routes comes through here; one call per pending edge per movement
func (r *Router) Route(occ *Occupancy, sig Signal, src, dst, hops int) (path []int, cost int, ok bool) {
	if hops < 1 || hops > r.MaxHops {
		return nil, 0, false
	}
	// No occupancy can bring dst closer than its static distance, which
	// alone rules out about a third of the annealer's queries.
	col := r.column(dst)
	if int(col[src]) > hops {
		return nil, 0, false
	}
	// Feasibility pre-check: an exact-hops path is a witness that dst is
	// reachable in ≤ hops under the same RouteOK/CanEnter constraints, so a
	// failed reachability BFS proves no exact path exists. The BFS stops at
	// depth hops, the only question asked. This turns the common congestion
	// failure from a full state-space sweep (nodes × hops) into one plain
	// BFS, and never changes a success.
	if r.reach(occ, sig, src, dst, hops, col) < 0 {
		return nil, 0, false
	}
	r.epoch++
	epoch := r.epoch
	dist, stamp, prev := r.dist, r.stamp, r.prev
	shift, mask := r.shift, r.mask
	start := int32(src) << shift
	dist[start] = 0
	stamp[start] = epoch
	prev[start] = -1
	r.dq.reset()
	r.dq.pushBack(start)

	last := int32(hops)
	goal := int32(dst)<<shift | last
	for r.dq.n > 0 {
		s := r.dq.popFront()
		d := dist[s]
		if s == goal {
			// 0-1 BFS invariant: the first pop of a state carries its final
			// distance (free steps re-enter at the front).
			return r.buildPath(goal, hops), int(d), true
		}
		done := s & mask
		if done >= last {
			continue
		}
		done++
		for _, nb := range r.g.adj[s>>shift] {
			ns := nb<<shift | done
			// A state already reached at cost ≤ d cannot improve: every
			// step costs at least 0. Skip it before any occupancy scan.
			seen := stamp[ns] == epoch
			if seen && dist[ns] <= d {
				continue
			}
			// The consumer op already occupies its FU, and same-signal
			// re-entry is fan-out sharing: both are free.
			step := int32(0)
			if nb != int32(dst) || done != last {
				// A state that cannot reach dst in the hops left is dead;
				// skipping it changes nothing else (see column).
				if int32(col[nb]) > last-done || !r.routeOK[nb] {
					continue
				}
				if step = occ.enterCost(int(nb), sig); step < 0 {
					continue
				}
			}
			nc := d + step
			if seen && dist[ns] <= nc {
				continue
			}
			stamp[ns] = epoch
			dist[ns] = nc
			prev[ns] = s
			if step == 0 {
				r.dq.pushFront(ns)
			} else {
				r.dq.pushBack(ns)
			}
		}
	}
	return nil, 0, false
}

// reach returns the minimum hop count of any admissible path from src to
// dst for sig (ignoring the exact-length constraint) if it is at most
// limit, else -1. Like Route it reuses the router's scratch arrays; dst
// counts as reachable on the hop that touches it even when dst itself is at
// capacity (the consumer op owns that FU). A node that cannot lie on a path
// of at most limit hops by col is not enqueued; a shortest path never loses
// a node that way.
func (r *Router) reach(occ *Occupancy, sig Signal, src, dst, limit int, col []uint8) int {
	r.epoch++
	epoch := r.epoch
	dist, stamp := r.dist, r.stamp
	shift := r.shift
	// Plain-node BFS: hop-minimal reachability. Reuse dist/stamp at the
	// node's done=0 state and the queue buffer from previous calls.
	q := r.bfsq[:0]
	q = append(q, int32(src))
	stamp[src<<shift] = epoch
	dist[src<<shift] = 0
	for i := 0; i < len(q); i++ {
		cur := q[i]
		d := dist[cur<<shift]
		for _, nb := range r.g.adj[cur] {
			if int(nb) == dst {
				r.bfsq = q
				return int(d) + 1
			}
			// col[nb] ≥ 1 past this point, so nothing deeper than limit-1
			// is ever enqueued: the depth bound needs no check of its own.
			ns := nb << shift
			if stamp[ns] == epoch || int(d)+1+int(col[nb]) > limit ||
				!r.routeOK[nb] || !occ.CanEnter(int(nb), sig) {
				continue
			}
			stamp[ns] = epoch
			dist[ns] = d + 1
			q = append(q, nb)
		}
	}
	r.bfsq = q
	return -1
}

// column returns the static distance column of dst: for every node n, the
// fewest hops from n to dst in the graph itself, occupancy and RouteOK
// ignored. Both only remove paths, so the column is a lower bound on any
// admissible route. The backward BFS that fills it stops at depth
// min(MaxHops, 254) and gives every node it did not reach that depth plus
// one, still a lower bound.
//
// Route skips states (n, done) with done + col[n] > hops. No such state
// reaches the goal. The column is consistent: col[n] ≤ 1 + col[m] along
// every edge n→m. The successors of a skipped state are therefore skipped
// too, and every state on a path to the goal is kept. The kept states see
// the same relaxations in the same order and keep their relative order in
// the deque, so the path and its cost do not change. Only dead states are
// skipped.
func (r *Router) column(dst int) []uint8 {
	if col := r.toDst[dst]; col != nil {
		return col
	}
	limit := min(r.MaxHops, 254)
	col := make([]uint8, len(r.toDst))
	for i := range col {
		col[i] = uint8(limit + 1)
	}
	col[dst] = 0
	q := r.bfsq[:0]
	q = append(q, int32(dst))
	for i := 0; i < len(q); i++ {
		cur := q[i]
		d := col[cur]
		if int(d) >= limit {
			continue
		}
		for _, p := range r.g.radj[cur] {
			if int(col[p]) == limit+1 && int(p) != dst {
				col[p] = d + 1
				q = append(q, p)
			}
		}
	}
	r.bfsq = q
	r.toDst[dst] = col
	return col
}

// buildPath materializes the prev chain ending at goal. The path is carved
// from the router's slab with a full slice expression, so it is exact-size
// and an append to it copies rather than overwrite its neighbour; the caller
// retains it in the mapping state, and no part of a slab is handed out twice.
func (r *Router) buildPath(goal int32, hops int) []int {
	n := hops + 1
	if len(r.slab) < n {
		r.slab = make([]int, max(pathSlab, n))
	}
	path := r.slab[:n:n]
	r.slab = r.slab[n:]
	s := goal
	for i := hops; i >= 0; i-- {
		path[i] = int(s >> r.shift)
		s = r.prev[s]
	}
	return path
}

// Commit occupies every intermediate node of path (excluding the first and
// last entries, which are the producer and consumer FUs) with sig.
func Commit(occ *Occupancy, sig Signal, path []int) {
	for i := 1; i < len(path)-1; i++ {
		occ.Use(path[i], sig)
	}
}

// Uncommit releases a previously committed path.
func Uncommit(occ *Occupancy, sig Signal, path []int) {
	for i := 1; i < len(path)-1; i++ {
		occ.Release(path[i], sig)
	}
}
