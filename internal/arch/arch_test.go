package arch

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/lisa-go/lisa/internal/dfg"
	"github.com/lisa-go/lisa/internal/rgraph"
)

// Validate sanity-checks an architecture: it has PEs, a MaxII of at least 1
// and a non-empty resource graph at II 1.
func Validate(a Arch) error {
	if a.NumPEs() <= 0 {
		return fmt.Errorf("arch %s: no PEs", a.Name())
	}
	if a.MaxII() < 1 {
		return fmt.Errorf("arch %s: MaxII < 1", a.Name())
	}
	g := a.BuildRGraph(1)
	if g.NumNodes() == 0 {
		return fmt.Errorf("arch %s: empty resource graph", a.Name())
	}
	return nil
}

func TestPaperTargetsValid(t *testing.T) {
	ts := PaperTargets()
	if len(ts) != 6 {
		t.Fatalf("paper targets = %d, want 6", len(ts))
	}
	for _, a := range ts {
		if err := Validate(a); err != nil {
			t.Errorf("%s: %v", a.Name(), err)
		}
	}
}

func TestByName(t *testing.T) {
	targets := PaperTargets()
	names := Names()
	if len(names) != len(targets) {
		t.Fatalf("Names() has %d entries, PaperTargets() %d", len(names), len(targets))
	}
	for i, n := range names {
		a, ok := ByName(n)
		if !ok || a.Name() != n {
			t.Errorf("ByName(%q) failed", n)
			continue
		}
		if targets[i].Name() != n {
			t.Errorf("Names()[%d] = %q, PaperTargets()[%d] is %q", i, n, i, targets[i].Name())
		}
		// Every lookup returns its own value: callers may not share one.
		if b, _ := ByName(n); a == b {
			t.Errorf("ByName(%q) returned the same value twice", n)
		}
	}
	for _, n := range []string{"nonexistent", "", "CGRA-4X4", "cgra-4x4 "} {
		if a, ok := ByName(n); ok || a != nil {
			t.Errorf("ByName(%q) = %v, %v; want nil, false", n, a, ok)
		}
	}
}

func TestNewCGRARejectsInvalidParameters(t *testing.T) {
	for _, p := range [][4]int{{0, 2, 1, 24}, {2, 0, 1, 24}, {2, 2, -1, 24}, {2, 2, 1, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewCGRA(rows %d, cols %d, regs %d, entries %d) did not panic",
						p[0], p[1], p[2], p[3])
				}
			}()
			NewCGRA("x", p[0], p[1], p[2], MemAll, p[3])
		}()
	}
}

func TestCGRACoordRoundTrip(t *testing.T) {
	c := NewBaseline4x4()
	for pe := 0; pe < c.NumPEs(); pe++ {
		r, col := c.Coord(pe)
		if c.PEAt(r, col) != pe {
			t.Fatalf("coord round trip failed for PE %d", pe)
		}
	}
}

func TestManhattanDistanceProperties(t *testing.T) {
	c := NewBaseline8x8()
	f := func(a, b uint8) bool {
		pa, pb := int(a)%c.NumPEs(), int(b)%c.NumPEs()
		d := c.SpatialDistance(pa, pb)
		if d != c.SpatialDistance(pb, pa) {
			return false // symmetry
		}
		if (pa == pb) != (d == 0) {
			return false // identity
		}
		// Triangle inequality through PE 0.
		return c.SpatialDistance(pa, 0)+c.SpatialDistance(0, pb) >= d
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMemPolicy(t *testing.T) {
	lm := NewLessMem4x4()
	memPEs := 0
	for pe := 0; pe < lm.NumPEs(); pe++ {
		if lm.SupportsOp(pe, dfg.OpLoad) {
			memPEs++
			_, col := lm.Coord(pe)
			if col != 0 {
				t.Errorf("PE %d (col %d) should not support loads", pe, col)
			}
		}
		if !lm.SupportsOp(pe, dfg.OpMul) {
			t.Errorf("PE %d should support mul", pe)
		}
	}
	if memPEs != 4 {
		t.Errorf("mem PEs = %d, want 4", memPEs)
	}
	base := NewBaseline4x4()
	for pe := 0; pe < base.NumPEs(); pe++ {
		if !base.SupportsOp(pe, dfg.OpStore) {
			t.Errorf("baseline PE %d should support stores", pe)
		}
	}
}

func TestMinII(t *testing.T) {
	g := dfg.New("t")
	prev := g.AddNode("", dfg.OpLoad)
	for i := 1; i < 20; i++ {
		op := dfg.OpAdd
		if i%3 == 0 {
			op = dfg.OpLoad
		}
		cur := g.AddNode("", op)
		g.AddEdge(prev, cur)
		prev = cur
	}
	c33 := NewBaseline3x3()
	if got := c33.MinII(g); got != 3 { // ceil(20/9) = 3
		t.Errorf("3x3 MinII = %d, want 3", got)
	}
	c44 := NewBaseline4x4()
	if got := c44.MinII(g); got != 2 { // ceil(20/16) = 2
		t.Errorf("4x4 MinII = %d, want 2", got)
	}
	lm := NewLessMem4x4()
	// 7 memory ops, 4 mem PEs -> memory bound ceil(7/4)=2 == compute bound.
	if got := lm.MinII(g); got != 2 {
		t.Errorf("lessmem MinII = %d, want 2", got)
	}
}

func TestCGRARGraphShape(t *testing.T) {
	c := NewBaseline4x4()
	ii := 3
	g := c.BuildRGraph(ii)
	wantNodes := c.NumPEs() * ii * 2 // FU + reg bank per (pe, cycle)
	if g.NumNodes() != wantNodes {
		t.Fatalf("nodes = %d, want %d", g.NumNodes(), wantNodes)
	}
	// Every edge must advance exactly one cycle mod II.
	for id := 0; id < g.NumNodes(); id++ {
		n := g.Nodes[id]
		for _, ob := range g.Out(id) {
			m := g.Nodes[ob]
			if m.Cycle != (n.Cycle+1)%ii {
				t.Fatalf("edge %v->%v does not advance one cycle", n, m)
			}
		}
	}
	// Corner PE has 2 neighbors; center has 4.
	corner := g.FUAt(0, 0)
	outFU := 0
	for _, ob := range g.Out(corner) {
		if g.Nodes[ob].Kind == rgraph.KindFU {
			outFU++
		}
	}
	if outFU != 3 { // self + 2 neighbors
		t.Errorf("corner FU out-degree to FUs = %d, want 3", outFU)
	}
}

func TestLessRoutingHasSmallerRegCapacity(t *testing.T) {
	a := NewBaseline4x4().BuildRGraph(2)
	b := NewLessRouting4x4().BuildRGraph(2)
	capOf := func(g *rgraph.Graph) int {
		for _, n := range g.Nodes {
			if n.Kind == rgraph.KindReg {
				return n.Cap
			}
		}
		return 0
	}
	if capOf(a) != 4 || capOf(b) != 1 {
		t.Errorf("reg caps = %d, %d; want 4, 1", capOf(a), capOf(b))
	}
}

func TestSystolicStructure(t *testing.T) {
	s := NewSystolic5x5()
	if s.MaxII() != 1 {
		t.Fatal("systolic MaxII must be 1")
	}
	for pe := 0; pe < s.NumPEs(); pe++ {
		_, col := s.Coord(pe)
		if !s.SupportsOp(pe, dfg.OpConst) {
			t.Errorf("PE %d must support constants", pe)
		}
		if s.SupportsOp(pe, dfg.OpSub) || s.SupportsOp(pe, dfg.OpCmp) {
			t.Errorf("PE %d must be fixed-function (no sub/cmp)", pe)
		}
		switch {
		case col == 0:
			if !s.SupportsOp(pe, dfg.OpLoad) || s.SupportsOp(pe, dfg.OpMul) {
				t.Errorf("left PE %d op support wrong", pe)
			}
		case col == s.Cols-1:
			if !s.SupportsOp(pe, dfg.OpStore) || s.SupportsOp(pe, dfg.OpAdd) {
				t.Errorf("right PE %d op support wrong", pe)
			}
		default:
			if !s.SupportsOp(pe, dfg.OpMul) || !s.SupportsOp(pe, dfg.OpAdd) {
				t.Errorf("interior PE %d should do mul/add", pe)
			}
			if s.SupportsOp(pe, dfg.OpLoad) || s.SupportsOp(pe, dfg.OpStore) {
				t.Errorf("interior PE %d must not access memory", pe)
			}
		}
	}
	g := s.BuildRGraph(1)
	// Links stay within the 4-neighborhood; only delay channels self-loop.
	for id := 0; id < g.NumNodes(); id++ {
		n := g.Nodes[id]
		r1, c1 := s.Coord(n.PE)
		for _, ob := range g.Out(id) {
			m := g.Nodes[ob]
			r2, c2 := s.Coord(m.PE)
			d := manhattan(r1, c1, r2, c2)
			if d > 1 {
				t.Fatalf("link (%d,%d)->(%d,%d) exceeds neighborhood", r1, c1, r2, c2)
			}
			if d == 0 && !(m.Kind == rgraph.KindReg) {
				t.Fatalf("same-PE link must target the delay channel")
			}
		}
	}
}

func TestRouterExactLength(t *testing.T) {
	c := NewBaseline4x4()
	ii := 4
	g := c.BuildRGraph(ii)
	occ := rgraph.NewOccupancy(g)
	r := rgraph.NewRouter(g, 16)

	src := g.FUAt(c.PEAt(0, 0), 0)
	dst := g.FUAt(c.PEAt(0, 3), 3)
	// Manhattan distance 3, time delta 3 -> exact 3-hop path exists.
	path, cost, ok := r.Route(occ, 1, src, dst, 3)
	if !ok {
		t.Fatal("expected route")
	}
	if len(path) != 4 {
		t.Fatalf("path len = %d, want 4", len(path))
	}
	if cost > 2 {
		t.Errorf("cost = %d, want <= 2 (intermediates only)", cost)
	}
	// A 2-hop route to a distance-3 PE must fail.
	dst2 := g.FUAt(c.PEAt(0, 3), 2)
	if _, _, ok := r.Route(occ, 1, src, dst2, 2); ok {
		t.Error("impossible 2-hop route succeeded")
	}
	// But 5 hops (3 spatial + 2 waiting) should succeed via registers.
	dst3 := g.FUAt(c.PEAt(0, 3), (0+5)%ii)
	if _, _, ok := r.Route(occ, 1, src, dst3, 5); !ok {
		t.Error("5-hop route with waiting failed")
	}
}

func TestRouterRespectsOccupancy(t *testing.T) {
	// 1x2 "CGRA": only path between the two PEs goes through their FUs.
	c := NewCGRA("tiny", 1, 2, 0, MemAll, 24) // no registers at all
	g := c.BuildRGraph(1)
	occ := rgraph.NewOccupancy(g)
	r := rgraph.NewRouter(g, 8)
	src := g.FUAt(0, 0)
	dst := g.FUAt(1, 0)
	if _, _, ok := r.Route(occ, 1, src, dst, 1); !ok {
		t.Fatal("direct hop should route")
	}
	// Occupy both FUs with ops, as a real mapping does. A 3-hop route then
	// has no admissible intermediate (no registers, both FUs taken).
	if !occ.PlaceOp(src, 41) || !occ.PlaceOp(dst, 42) {
		t.Fatal("place failed")
	}
	if _, _, ok := r.Route(occ, 7, src, dst, 3); ok {
		t.Error("route through op-occupied FU should fail")
	}
	// The direct 1-hop route is still fine: endpoints are exempt.
	if _, _, ok := r.Route(occ, 7, src, dst, 1); !ok {
		t.Error("direct route between placed ops should still succeed")
	}
}

func TestRouterFanoutSharing(t *testing.T) {
	c := NewBaseline4x4()
	g := c.BuildRGraph(2)
	occ := rgraph.NewOccupancy(g)
	r := rgraph.NewRouter(g, 12)
	sig := rgraph.Signal(5)
	src := g.FUAt(c.PEAt(0, 0), 0)
	d1 := g.FUAt(c.PEAt(0, 2), 0) // 2 hops away, same mod-cycle
	path1, _, ok := r.Route(occ, sig, src, d1, 2)
	if !ok {
		t.Fatal("first route failed")
	}
	rgraph.Commit(occ, sig, path1)
	// Second branch of the same signal: shares the first intermediate.
	d2 := g.FUAt(c.PEAt(1, 1), 0)
	path2, cost2, ok := r.Route(occ, sig, src, d2, 2)
	if !ok {
		t.Fatal("second route failed")
	}
	if cost2 > 1 {
		t.Errorf("fanout route cost = %d, want <= 1 (sharing)", cost2)
	}
	rgraph.Commit(occ, sig, path2)
	rgraph.Uncommit(occ, sig, path2)
	rgraph.Uncommit(occ, sig, path1)
	for n := 0; n < g.NumNodes(); n++ {
		if occ.UseCount(n) != 0 {
			t.Fatalf("node %d still occupied after uncommit", n)
		}
	}
}

func TestOccupancyCapacityAndSharing(t *testing.T) {
	c := NewBaseline4x4()
	g := c.BuildRGraph(1)
	occ := rgraph.NewOccupancy(g)
	// Find a reg node (capacity 4).
	reg := -1
	for i, n := range g.Nodes {
		if n.Kind == rgraph.KindReg {
			reg = i
			break
		}
	}
	for s := rgraph.Signal(1); s <= 4; s++ {
		if !occ.CanEnter(reg, s) {
			t.Fatalf("signal %d should fit", s)
		}
		occ.Use(reg, s)
	}
	if occ.CanEnter(reg, 5) {
		t.Error("5th distinct signal should not fit in cap-4 register bank")
	}
	if !occ.CanEnter(reg, 2) {
		t.Error("existing signal must always be allowed to re-enter")
	}
	occ.Use(reg, 2) // refcount 2
	occ.Release(reg, 2)
	if !occ.Carries(reg, 2) {
		t.Error("signal 2 should survive one release")
	}
	occ.Release(reg, 2)
	if occ.Carries(reg, 2) {
		t.Error("signal 2 should be gone")
	}
}

func TestOccupancyCloneIndependence(t *testing.T) {
	c := NewBaseline3x3()
	g := c.BuildRGraph(1)
	occ := rgraph.NewOccupancy(g)
	reg := -1
	for i, n := range g.Nodes {
		if n.Kind == rgraph.KindReg {
			reg = i
			break
		}
	}
	occ.Use(reg, 1)
	cl := occ.Clone()
	cl.Use(reg, 2)
	if occ.Carries(reg, 2) {
		t.Fatal("clone mutation leaked to original")
	}
	if !cl.Carries(reg, 1) {
		t.Fatal("clone lost original state")
	}
}

func TestRouteRandomPairsAlwaysExactLength(t *testing.T) {
	c := NewBaseline4x4()
	ii := 4
	g := c.BuildRGraph(ii)
	r := rgraph.NewRouter(g, 20)
	rng := rand.New(rand.NewSource(3))
	occ := rgraph.NewOccupancy(g)
	for trial := 0; trial < 120; trial++ {
		p1 := rng.Intn(c.NumPEs())
		p2 := rng.Intn(c.NumPEs())
		t1 := rng.Intn(ii)
		hops := 1 + rng.Intn(12)
		src := g.FUAt(p1, t1)
		dst := g.FUAt(p2, (t1+hops)%ii)
		if src == dst {
			continue
		}
		path, _, ok := r.Route(occ, rgraph.Signal(trial), src, dst, hops)
		if !ok {
			// Must be genuinely infeasible: spatial distance exceeds hops.
			if c.SpatialDistance(p1, p2) <= hops {
				t.Fatalf("route (%d,%d)->(%d,%d) hops=%d should exist",
					p1, t1, p2, (t1+hops)%ii, hops)
			}
			continue
		}
		if len(path) != hops+1 {
			t.Fatalf("path length %d != hops+1 (%d)", len(path), hops+1)
		}
		if path[0] != src || path[len(path)-1] != dst {
			t.Fatal("path endpoints wrong")
		}
		for i := 0; i+1 < len(path); i++ {
			found := false
			for _, nb := range g.Out(path[i]) {
				if int(nb) == path[i+1] {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("path step %d->%d is not an edge", path[i], path[i+1])
			}
		}
	}
}
