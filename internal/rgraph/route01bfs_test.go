package rgraph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// randomOccupancy scatters foreign signals over the graph so routes must
// detour, share, or fail — the states the annealer actually queries from.
func randomOccupancy(g *Graph, rng *rand.Rand, load float64) *Occupancy {
	occ := NewOccupancy(g)
	for n := 0; n < g.NumNodes(); n++ {
		for rng.Float64() < load {
			sig := Signal(100 + rng.Intn(8))
			if !occ.CanEnter(n, sig) {
				break
			}
			occ.Use(n, sig)
		}
	}
	return occ
}

// checkPath verifies a returned route against the router's contract: exact
// length, declared endpoints, every step an actual graph edge, intermediates
// admissible, and the recomputed step-cost sum equal to the reported cost.
func checkPath(t *testing.T, g *Graph, occ *Occupancy, sig Signal, src, dst, hops int, path []int, cost int) {
	t.Helper()
	if len(path) != hops+1 {
		t.Fatalf("path length %d, want %d", len(path), hops+1)
	}
	if path[0] != src || path[hops] != dst {
		t.Fatalf("path endpoints %d..%d, want %d..%d", path[0], path[hops], src, dst)
	}
	sum := 0
	for i := 1; i < len(path); i++ {
		edge := false
		for _, nb := range g.Out(path[i-1]) {
			if int(nb) == path[i] {
				edge = true
			}
		}
		if !edge {
			t.Fatalf("step %d->%d is not a graph edge", path[i-1], path[i])
		}
		isDst := path[i] == dst && i == hops
		if !isDst {
			if !g.Nodes[path[i]].RouteOK || !occ.CanEnter(path[i], sig) {
				t.Fatalf("inadmissible intermediate %d", path[i])
			}
		}
		if !isDst && !occ.Carries(path[i], sig) {
			sum++
		}
	}
	if sum != cost {
		t.Fatalf("recomputed cost %d, reported %d", sum, cost)
	}
}

// TestRoute01BFSMatchesDijkstra is the router differential test: on random
// occupancy states and random (src, dst, hops) queries, the 0-1 BFS must
// agree with the retained heap-Dijkstra reference on feasibility and on
// minimum cost. Paths may differ at equal cost (documented tie-break change);
// both must still be valid exact-length routes of that cost.
func TestRoute01BFSMatchesDijkstra(t *testing.T) {
	for _, shape := range []struct{ n, ii int }{{4, 1}, {6, 2}, {8, 3}} {
		g := lineGraph(shape.n, shape.ii)
		fus := g.FUs()
		r := NewRouter(g, 24)
		var pq routeHeap
		rng := rand.New(rand.NewSource(int64(shape.n*100 + shape.ii)))
		agreeOK, agreeFail := 0, 0
		for q := 0; q < 600; q++ {
			occ := randomOccupancy(g, rng, 0.25)
			sig := Signal(rng.Intn(4))
			src := fus[rng.Intn(len(fus))]
			dst := fus[rng.Intn(len(fus))]
			hops := 1 + rng.Intn(10)

			pb, cb, okb := r.Route(occ, sig, src, dst, hops)
			pd, cd, okd := r.routeDijkstra(&pq, occ, sig, src, dst, hops)
			if okb != okd {
				t.Fatalf("n=%d ii=%d q=%d: 0-1 BFS ok=%v, Dijkstra ok=%v (src=%d dst=%d hops=%d)",
					shape.n, shape.ii, q, okb, okd, src, dst, hops)
			}
			if !okb {
				agreeFail++
				continue
			}
			if cb != cd {
				t.Fatalf("n=%d ii=%d q=%d: 0-1 BFS cost=%d, Dijkstra cost=%d", shape.n, shape.ii, q, cb, cd)
			}
			checkPath(t, g, occ, sig, src, dst, hops, pb, cb)
			checkPath(t, g, occ, sig, src, dst, hops, pd, cd)
			agreeOK++
		}
		if agreeOK == 0 || agreeFail == 0 {
			t.Fatalf("n=%d ii=%d: degenerate query mix (ok=%d fail=%d)", shape.n, shape.ii, agreeOK, agreeFail)
		}
	}
}

// TestRouteDeterministic pins the 0-1 BFS tie-break: repeated identical
// queries — interleaved with unrelated ones that churn the shared scratch —
// must return byte-identical paths.
func TestRouteDeterministic(t *testing.T) {
	g := lineGraph(6, 2)
	fus := g.FUs()
	r := NewRouter(g, 16)
	occ := NewOccupancy(g)
	ref, cost, ok := r.Route(occ, 3, fus[0], fus[len(fus)-1], 7)
	if !ok {
		t.Fatal("reference route failed")
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 50; i++ {
		r.Route(occ, Signal(rng.Intn(5)), fus[rng.Intn(len(fus))], fus[rng.Intn(len(fus))], 1+rng.Intn(8))
		got, c, ok := r.Route(occ, 3, fus[0], fus[len(fus)-1], 7)
		if !ok || c != cost {
			t.Fatalf("iteration %d: route changed feasibility/cost", i)
		}
		for j := range ref {
			if got[j] != ref[j] {
				t.Fatalf("iteration %d: path diverged at %d: %v vs %v", i, j, got, ref)
			}
		}
	}
}

// ShortestHops returns the minimum hop count of any admissible path from src
// to dst for sig (ignoring the exact-length constraint), or -1 if dst is
// unreachable within MaxHops: reach without a tighter depth bound. No binary
// queries it; tests compare it against the oracle router's breadth-first
// search.
func (r *Router) ShortestHops(occ *Occupancy, sig Signal, src, dst int) int {
	return r.reach(occ, sig, src, dst, r.MaxHops, r.column(dst))
}

// TestShortestHopsDstFirstHop: the consumer's FU counts as reachable on the
// hop that touches it even when the FU itself is at capacity — the consumer
// op owns that slot. The dst check must therefore fire before the CanEnter
// filter, including on the very first hop.
func TestShortestHopsDstFirstHop(t *testing.T) {
	g := lineGraph(3, 1)
	occ := NewOccupancy(g)
	r := NewRouter(g, 8)
	src, dst := g.FUAt(0, 0), g.FUAt(1, 0)
	if !occ.PlaceOp(dst, 5) {
		t.Fatal("setup: PlaceOp failed")
	}
	if got := r.ShortestHops(occ, 1, src, dst); got != 1 {
		t.Fatalf("dst adjacent and op-occupied: ShortestHops = %d, want 1", got)
	}
	// The same query through Route: a 1-hop path straight into the consumer.
	path, cost, ok := r.Route(occ, 1, src, dst, 1)
	if !ok || cost != 0 || len(path) != 2 {
		t.Fatalf("1-hop route into occupied consumer: ok=%v cost=%d path=%v", ok, cost, path)
	}
}

// TestShortestHopsScratchReuse: interleaved queries on one router (shared
// dist/stamp/queue scratch) must match a fresh router's answers.
func TestShortestHopsScratchReuse(t *testing.T) {
	g := lineGraph(6, 2)
	fus := g.FUs()
	shared := NewRouter(g, 16)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		occ := randomOccupancy(g, rng, 0.2)
		sig := Signal(rng.Intn(4))
		src := fus[rng.Intn(len(fus))]
		dst := fus[rng.Intn(len(fus))]
		got := shared.ShortestHops(occ, sig, src, dst)
		want := NewRouter(g, 16).ShortestHops(occ, sig, src, dst)
		if got != want {
			t.Fatalf("query %d: shared scratch %d, fresh router %d", i, got, want)
		}
	}
}

// TestJournalRollbackProperty: for any interleaving of admissible Use/Release
// calls made under an armed journal, RollbackJournal must restore a table
// equivalent to the pre-journal Clone, and CommitJournal must keep the
// mutations. Signals overlap with pre-existing occupancy so rollback
// exercises refcount decrements, not just entry removal.
func TestJournalRollbackProperty(t *testing.T) {
	g := lineGraph(4, 2)
	f := func(ops []uint16, commit bool) bool {
		rng := rand.New(rand.NewSource(int64(len(ops))))
		occ := randomOccupancy(g, rng, 0.15)
		before := occ.Clone()
		occ.BeginJournal()
		var used [][2]int
		for _, op := range ops {
			node := int(op) % g.NumNodes()
			sig := Signal(int(op)%5 + 100) // overlaps randomOccupancy's signals
			if int(op)%3 == 0 && len(used) > 0 {
				k := int(op) % len(used)
				occ.Release(used[k][0], Signal(used[k][1]))
				used = append(used[:k], used[k+1:]...)
				continue
			}
			if occ.CanEnter(node, sig) {
				occ.Use(node, sig)
				used = append(used, [2]int{node, int(sig)})
			}
		}
		if commit {
			occ.CommitJournal()
			// Mutations survive: replaying the inverse by hand gets back to
			// the original, proving the journal didn't double-apply anything.
			for i := len(used) - 1; i >= 0; i-- {
				occ.Release(used[i][0], Signal(used[i][1]))
			}
			return occ.Equivalent(before)
		}
		occ.RollbackJournal()
		return occ.Equivalent(before) && before.Equivalent(occ)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}
