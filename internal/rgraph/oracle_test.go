package rgraph_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/lisa-go/lisa/internal/arch"
	"github.com/lisa-go/lisa/internal/rgraph"
)

// builtinGraphs returns the resource graph of every built-in target at II
// 1–4 (each target's MaxII permitting).
func builtinGraphs() []struct {
	name string
	g    *rgraph.Graph
} {
	var out []struct {
		name string
		g    *rgraph.Graph
	}
	for _, ar := range append(arch.PaperTargets(), arch.ExtendedTargets()...) {
		for ii := 1; ii <= 4 && ii <= ar.MaxII(); ii++ {
			out = append(out, struct {
				name string
				g    *rgraph.Graph
			}{fmt.Sprintf("%s/ii=%d", ar.Name(), ii), ar.BuildRGraph(ii)})
		}
	}
	return out
}

// --- occupancy reference model ----------------------------------------------

// refOccupancy is the naive occupancy model the dense table must agree
// with: one signal → refcount map per node, and a journal that is a full
// copy taken at BeginJournal.
type refOccupancy struct {
	caps  []int
	nodes []map[rgraph.Signal]int
	saved []map[rgraph.Signal]int // nil when no journal is armed
}

func newRefOccupancy(g *rgraph.Graph) *refOccupancy {
	r := &refOccupancy{caps: make([]int, g.NumNodes()), nodes: make([]map[rgraph.Signal]int, g.NumNodes())}
	for n := range r.nodes {
		r.caps[n] = g.Nodes[n].Cap
		r.nodes[n] = map[rgraph.Signal]int{}
	}
	return r
}

func copyNodes(nodes []map[rgraph.Signal]int) []map[rgraph.Signal]int {
	out := make([]map[rgraph.Signal]int, len(nodes))
	for n, m := range nodes {
		out[n] = make(map[rgraph.Signal]int, len(m))
		//lisa:vet-ok maprange copying a map; the order of inserts cannot matter
		for s, c := range m {
			out[n][s] = c
		}
	}
	return out
}

func (r *refOccupancy) canEnter(n int, sig rgraph.Signal) bool {
	_, ok := r.nodes[n][sig]
	return ok || len(r.nodes[n]) < r.caps[n]
}

func (r *refOccupancy) use(n int, sig rgraph.Signal) { r.nodes[n][sig]++ }

func (r *refOccupancy) release(n int, sig rgraph.Signal) {
	if r.nodes[n][sig]--; r.nodes[n][sig] == 0 {
		delete(r.nodes[n], sig)
	}
}

func (r *refOccupancy) entries(n int) []rgraph.SigRef {
	var out []rgraph.SigRef
	//lisa:vet-ok maprange the entries are sorted right below
	for s, c := range r.nodes[n] {
		out = append(out, rgraph.SigRef{Sig: s, Ref: c})
	}
	slices.SortFunc(out, func(a, b rgraph.SigRef) int { return int(a.Sig) - int(b.Sig) })
	return out
}

// held lists every (node, signal) pair in use, in node then signal order.
func (r *refOccupancy) held() [][2]int {
	var out [][2]int
	for n := range r.nodes {
		for _, e := range r.entries(n) {
			out = append(out, [2]int{n, int(e.Sig)})
		}
	}
	return out
}

// checkAgrees compares every query of the dense table with the reference
// model on every node, for op signals and a spread of routed signals.
func checkAgrees(t *testing.T, where string, o *rgraph.Occupancy, r *refOccupancy, sigs []rgraph.Signal) {
	t.Helper()
	for n := range r.nodes {
		got, want := o.Entries(n), r.entries(n)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: node %d Entries %v, reference %v", where, n, got, want)
		}
		if got, want := o.UseCount(n), len(r.nodes[n]); got != want {
			t.Fatalf("%s: node %d UseCount %d, reference %d", where, n, got, want)
		}
		if got, want := o.CanPlaceOp(n), len(r.nodes[n]) < r.caps[n]; got != want {
			t.Fatalf("%s: node %d CanPlaceOp %v, reference %v", where, n, got, want)
		}
		opOcc := false
		for s := range r.nodes[n] {
			opOcc = opOcc || s < 0
		}
		if got := o.OpOccupied(n); got != opOcc {
			t.Fatalf("%s: node %d OpOccupied %v, reference %v", where, n, got, opOcc)
		}
		for _, s := range sigs {
			_, carries := r.nodes[n][s]
			if got := o.Carries(n, s); got != carries {
				t.Fatalf("%s: node %d Carries(%d) %v, reference %v", where, n, s, got, carries)
			}
			if got, want := o.CanEnter(n, s), r.canEnter(n, s); got != want {
				t.Fatalf("%s: node %d CanEnter(%d) %v, reference %v", where, n, s, got, want)
			}
		}
	}
}

// TestOccupancyMatchesReference drives the dense occupancy table and the
// naive reference model through the same random Use/Release/PlaceOp/
// RemoveOp/BeginJournal/CommitJournal/RollbackJournal sequence on every
// built-in target's resource graph, and compares every query on every node
// after every operation.
func TestOccupancyMatchesReference(t *testing.T) {
	for gi, tg := range builtinGraphs() {
		g := tg.g
		rng := rand.New(rand.NewSource(int64(gi + 1)))
		o, r := rgraph.NewOccupancy(g), newRefOccupancy(g)
		// Routed signals 0..5 and op signals of DFG nodes 0..3 (-1..-4).
		sigs := []rgraph.Signal{0, 1, 2, 3, 4, 5, -1, -2, -3, -4}
		ops := 300
		if g.NumNodes() > 200 {
			ops = 80
		}
		for i := 0; i < ops; i++ {
			n := rng.Intn(g.NumNodes())
			var what string
			switch p := rng.Intn(100); {
			case p < 45:
				sig := rgraph.Signal(rng.Intn(6))
				what = fmt.Sprintf("Use(%d,%d)", n, sig)
				if got, want := o.CanEnter(n, sig), r.canEnter(n, sig); got != want {
					t.Fatalf("%s op %d: CanEnter(%d,%d) %v, reference %v", tg.name, i, n, sig, got, want)
				}
				if r.canEnter(n, sig) {
					o.Use(n, sig)
					r.use(n, sig)
				}
			case p < 55:
				v := rng.Intn(4)
				what = fmt.Sprintf("PlaceOp(%d,%d)", n, v)
				okWant := r.canEnter(n, rgraph.Signal(-1-v))
				if ok := o.PlaceOp(n, v); ok != okWant {
					t.Fatalf("%s op %d: %s = %v, reference %v", tg.name, i, what, ok, okWant)
				}
				if okWant {
					r.use(n, rgraph.Signal(-1-v))
				}
			case p < 85:
				held := r.held()
				if len(held) == 0 {
					continue
				}
				h := held[rng.Intn(len(held))]
				what = fmt.Sprintf("Release(%d,%d)", h[0], h[1])
				if h[1] < 0 {
					o.RemoveOp(h[0], -1-h[1])
				} else {
					o.Release(h[0], rgraph.Signal(h[1]))
				}
				r.release(h[0], rgraph.Signal(h[1]))
			case p < 90:
				what = "BeginJournal"
				o.BeginJournal()
				r.saved = copyNodes(r.nodes)
			case p < 95:
				what = "CommitJournal"
				o.CommitJournal()
				r.saved = nil
			default:
				if r.saved == nil {
					continue
				}
				what = "RollbackJournal"
				o.RollbackJournal()
				r.nodes, r.saved = r.saved, nil
			}
			checkAgrees(t, fmt.Sprintf("%s op %d %s", tg.name, i, what), o, r, sigs)
		}
		c := o.Clone()
		if !c.Equivalent(o) || !o.Equivalent(c) {
			t.Fatalf("%s: Clone not Equivalent to its source", tg.name)
		}
		checkAgrees(t, tg.name+" clone", c, r, sigs)
		o.Reset()
		checkAgrees(t, tg.name+" reset", o, newRefOccupancy(g), sigs)
	}
}

// --- router oracle ------------------------------------------------------------

// oracleRouter is the router before the dense state index: stride
// MaxHops+1 with division and modulo, a ShortestHops pre-check bounded only
// by MaxHops, no static distance pruning, admissibility tested before the
// visited check, separate CanEnter and Carries scans, and a fresh slice per
// path. The new Router must return exactly its paths, costs and distances.
type oracleRouter struct {
	g       *rgraph.Graph
	maxHops int
	w       int
	dist    []int32
	stamp   []uint32
	prev    []int32
	epoch   uint32
	dq      []int32 // ring buffer
	head, n int
	bfsq    []int32
}

func newOracleRouter(g *rgraph.Graph, maxHops int) *oracleRouter {
	if maxHops < 1 {
		maxHops = 1
	}
	size := g.NumNodes() * (maxHops + 1)
	return &oracleRouter{g: g, maxHops: maxHops, w: maxHops + 1,
		dist: make([]int32, size), stamp: make([]uint32, size), prev: make([]int32, size)}
}

func (r *oracleRouter) grow() {
	nb := make([]int32, max(4*len(r.dq), 64))
	for i := 0; i < r.n; i++ {
		nb[i] = r.dq[(r.head+i)%len(r.dq)]
	}
	r.dq, r.head = nb, 0
}

func (r *oracleRouter) pushFront(v int32) {
	if r.n == len(r.dq) {
		r.grow()
	}
	r.head = (r.head - 1 + len(r.dq)) % len(r.dq)
	r.dq[r.head] = v
	r.n++
}

func (r *oracleRouter) pushBack(v int32) {
	if r.n == len(r.dq) {
		r.grow()
	}
	r.dq[(r.head+r.n)%len(r.dq)] = v
	r.n++
}

func (r *oracleRouter) popFront() int32 {
	v := r.dq[r.head]
	r.head = (r.head + 1) % len(r.dq)
	r.n--
	return v
}

func (r *oracleRouter) Route(occ *rgraph.Occupancy, sig rgraph.Signal, src, dst, hops int) ([]int, int, bool) {
	if hops < 1 || hops > r.maxHops {
		return nil, 0, false
	}
	if sh := r.ShortestHops(occ, sig, src, dst); sh < 0 || sh > hops {
		return nil, 0, false
	}
	r.epoch++
	w := r.w
	start := int32(src * w)
	r.dist[start] = 0
	r.stamp[start] = r.epoch
	r.prev[start] = -1
	r.head, r.n = 0, 0
	r.pushBack(start)
	goal := int32(dst*w + hops)
	for r.n > 0 {
		s := r.popFront()
		d := r.dist[s]
		if s == goal {
			path := make([]int, hops+1)
			for i, p := hops, goal; i >= 0; i-- {
				path[i] = int(p) / w
				p = r.prev[p]
			}
			return path, int(d), true
		}
		node := int(s) / w
		done := int(s) % w
		if done >= hops {
			continue
		}
		for _, nb := range r.g.Out(node) {
			next := int(nb)
			isDst := next == dst && done+1 == hops
			if !isDst {
				if !r.g.Nodes[next].RouteOK || !occ.CanEnter(next, sig) {
					continue
				}
			}
			step := int32(1)
			if isDst || occ.Carries(next, sig) {
				step = 0
			}
			ns := int32(next*w + done + 1)
			nc := d + step
			if r.stamp[ns] == r.epoch && r.dist[ns] <= nc {
				continue
			}
			r.stamp[ns] = r.epoch
			r.dist[ns] = nc
			r.prev[ns] = s
			if step == 0 {
				r.pushFront(ns)
			} else {
				r.pushBack(ns)
			}
		}
	}
	return nil, 0, false
}

func (r *oracleRouter) ShortestHops(occ *rgraph.Occupancy, sig rgraph.Signal, src, dst int) int {
	r.epoch++
	w := r.w
	q := append(r.bfsq[:0], int32(src))
	r.stamp[src*w] = r.epoch
	r.dist[src*w] = 0
	defer func() { r.bfsq = q }()
	for i := 0; i < len(q); i++ {
		cur := int(q[i])
		d := int(r.dist[cur*w])
		if d >= r.maxHops {
			continue
		}
		for _, nb := range r.g.Out(cur) {
			next := int(nb)
			if next == dst {
				return d + 1
			}
			if !r.g.Nodes[next].RouteOK || !occ.CanEnter(next, sig) {
				continue
			}
			if r.stamp[next*w] == r.epoch {
				continue
			}
			r.stamp[next*w] = r.epoch
			r.dist[next*w] = int32(d + 1)
			q = append(q, int32(next))
		}
	}
	return -1
}

// scatter fills occ the way an annealer leaves it: ops on some FUs, routed
// signals on FUs and registers, some signals shared across neighbours so
// that free (fan-out) steps occur.
func scatter(g *rgraph.Graph, rng *rand.Rand, load float64) *rgraph.Occupancy {
	occ := rgraph.NewOccupancy(g)
	for n := 0; n < g.NumNodes(); n++ {
		if g.Nodes[n].Kind == rgraph.KindFU && rng.Float64() < load/2 {
			occ.PlaceOp(n, 10+rng.Intn(20))
			continue
		}
		for rng.Float64() < load {
			sig := rgraph.Signal(rng.Intn(6))
			if !occ.CanEnter(n, sig) {
				break
			}
			occ.Use(n, sig)
		}
	}
	return occ
}

// TestRouteMatchesOracle: on random occupancies of every built-in target at
// II 1–4, for every hop count from 0 to MaxHops+1, Route must return the
// oracle's exact (path, cost, ok) and ShortestHops its exact distance. One
// Router answers every query of a graph, interleaved, so scratch reuse
// across calls is covered too.
func TestRouteMatchesOracle(t *testing.T) {
	queries, succeeded, freeSteps := 0, 0, 0
	for gi, tg := range builtinGraphs() {
		g := tg.g
		rng := rand.New(rand.NewSource(int64(100 + gi)))
		fus := g.FUs()
		maxHops := 6 + g.II*3
		r, o := rgraph.NewRouter(g, maxHops), newOracleRouter(g, maxHops)
		rounds := 12
		if g.NumNodes() > 200 {
			rounds = 3
		}
		for round := 0; round < rounds; round++ {
			occ := scatter(g, rng, []float64{0.1, 0.3, 0.55}[round%3])
			for q := 0; q < 6; q++ {
				sig := rgraph.Signal(rng.Intn(6))
				src, dst := fus[rng.Intn(len(fus))], fus[rng.Intn(len(fus))]
				if q%3 == 0 {
					dst = rng.Intn(g.NumNodes()) // a register as the endpoint too
				}
				if got, want := r.ShortestHops(occ, sig, src, dst), o.ShortestHops(occ, sig, src, dst); got != want {
					t.Fatalf("%s: ShortestHops(%d, %d→%d) = %d, oracle %d", tg.name, sig, src, dst, got, want)
				}
				for hops := 0; hops <= maxHops+1; hops++ {
					pg, cg, okg := r.Route(occ, sig, src, dst, hops)
					pw, cw, okw := o.Route(occ, sig, src, dst, hops)
					queries++
					if okg != okw || cg != cw || !slices.Equal(pg, pw) {
						t.Fatalf("%s: Route(%d, %d→%d, %d hops) = (%v, %d, %v), oracle (%v, %d, %v)",
							tg.name, sig, src, dst, hops, pg, cg, okg, pw, cw, okw)
					}
					if okg {
						succeeded++
						if cg < hops-1 {
							freeSteps++
						}
						if cap(pg) != len(pg) {
							t.Fatalf("%s: path capacity %d exceeds its length %d", tg.name, cap(pg), len(pg))
						}
					}
				}
			}
		}
	}
	// A hop bound beyond the 254 the static distance columns hold.
	g := arch.NewBaseline3x3().BuildRGraph(2)
	fus := g.FUs()
	rng := rand.New(rand.NewSource(99))
	r, o := rgraph.NewRouter(g, 300), newOracleRouter(g, 300)
	for q := 0; q < 40; q++ {
		occ := scatter(g, rng, 0.3)
		sig := rgraph.Signal(rng.Intn(6))
		src, dst := fus[rng.Intn(len(fus))], fus[rng.Intn(len(fus))]
		if got, want := r.ShortestHops(occ, sig, src, dst), o.ShortestHops(occ, sig, src, dst); got != want {
			t.Fatalf("MaxHops 300: ShortestHops(%d, %d→%d) = %d, oracle %d", sig, src, dst, got, want)
		}
		for _, hops := range []int{1, 2, 3, 5, 8, 13, 253, 254, 255, 256, 299, 300, 301} {
			pg, cg, okg := r.Route(occ, sig, src, dst, hops)
			pw, cw, okw := o.Route(occ, sig, src, dst, hops)
			queries++
			if okg != okw || cg != cw || !slices.Equal(pg, pw) {
				t.Fatalf("MaxHops 300: Route(%d, %d→%d, %d hops) = (%v, %d, %v), oracle (%v, %d, %v)",
					sig, src, dst, hops, pg, cg, okg, pw, cw, okw)
			}
			if okg {
				succeeded++
			}
		}
	}
	// Hop bounds below the graph's diameter: many pairs are exactly one
	// hop too far, where the reachability BFS must stop at its bound.
	for _, maxHops := range []int{1, 2, 3} {
		g := arch.NewBaseline4x4().BuildRGraph(1)
		fus := g.FUs()
		r, o := rgraph.NewRouter(g, maxHops), newOracleRouter(g, maxHops)
		for q := 0; q < 60; q++ {
			occ := scatter(g, rng, 0.2)
			sig := rgraph.Signal(rng.Intn(6))
			src, dst := fus[rng.Intn(len(fus))], fus[rng.Intn(len(fus))]
			if got, want := r.ShortestHops(occ, sig, src, dst), o.ShortestHops(occ, sig, src, dst); got != want {
				t.Fatalf("MaxHops %d: ShortestHops(%d, %d→%d) = %d, oracle %d", maxHops, sig, src, dst, got, want)
			}
			for hops := 0; hops <= maxHops+1; hops++ {
				pg, cg, okg := r.Route(occ, sig, src, dst, hops)
				pw, cw, okw := o.Route(occ, sig, src, dst, hops)
				if okg != okw || cg != cw || !slices.Equal(pg, pw) {
					t.Fatalf("MaxHops %d: Route(%d, %d→%d, %d hops) = (%v, %d, %v), oracle (%v, %d, %v)",
						maxHops, sig, src, dst, hops, pg, cg, okg, pw, cw, okw)
				}
			}
		}
	}
	if succeeded == 0 || succeeded == queries || freeSteps == 0 {
		t.Fatalf("degenerate query mix: %d queries, %d routed, %d with free steps", queries, succeeded, freeSteps)
	}
	t.Logf("%d queries, %d routed, %d with free steps", queries, succeeded, freeSteps)
}

// TestRoutePathsStayIntact: paths are carved from a shared slab, so a path
// must not change when later routes are built, and appending to one must
// not write into another.
func TestRoutePathsStayIntact(t *testing.T) {
	ar := arch.NewBaseline4x4()
	g := ar.BuildRGraph(2)
	fus := g.FUs()
	r := rgraph.NewRouter(g, 12)
	occ := rgraph.NewOccupancy(g)
	rng := rand.New(rand.NewSource(5))
	var kept, copies [][]int
	for len(kept) < 400 {
		p, _, ok := r.Route(occ, rgraph.Signal(rng.Intn(4)), fus[rng.Intn(len(fus))], fus[rng.Intn(len(fus))], 1+rng.Intn(12))
		if ok {
			kept = append(kept, p)
			copies = append(copies, slices.Clone(p))
		}
	}
	for i := range kept {
		_ = append(kept[i], -1)
	}
	for i := range kept {
		if !slices.Equal(kept[i], copies[i]) {
			t.Fatalf("path %d changed: %v, was %v", i, kept[i], copies[i])
		}
	}
}
