package dfg

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// paperExample builds the DFG of the paper's Fig. 4: A..J with B feeding four
// children and the dense region the motivating example discusses.
func paperExample() *Graph {
	g := New("fig4")
	ids := map[string]int{}
	for _, n := range []string{"A", "B", "C", "D", "E", "F", "G", "H", "I", "J"} {
		ids[n] = g.AddNode(n, OpAdd)
	}
	add := func(a, b string) { g.AddEdge(ids[a], ids[b]) }
	add("A", "C")
	add("B", "D")
	add("B", "E")
	add("B", "F")
	add("B", "I")
	add("C", "G")
	add("D", "H")
	add("E", "I")
	add("G", "J")
	add("H", "J")
	add("I", "J")
	add("F", "J")
	return g
}

func TestPaperExampleStructure(t *testing.T) {
	g := paperExample()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	a := Analyze(g)
	b, _ := g.NodeByName("B")
	if got := g.OutDegree(b); got != 4 {
		t.Errorf("B out-degree = %d, want 4", got)
	}
	j, _ := g.NodeByName("J")
	if a.ASAP[j] != a.CriticalPath {
		t.Errorf("J ASAP = %d, want critical path %d", a.ASAP[j], a.CriticalPath)
	}
	if a.CriticalPath != 3 {
		t.Errorf("critical path = %d, want 3 (A->C->G->J)", a.CriticalPath)
	}
	if n := a.NumDescendants(b); n != 6 {
		t.Errorf("B descendants = %d, want 6 (D,E,F,I,H,J)", n)
	}
	if n := a.NumAncestors(j); n != 9 {
		t.Errorf("J ancestors = %d, want 9", n)
	}
}

func TestSameLevelPairsPaperExample(t *testing.T) {
	// Paper Fig. 7: C, E, F are same-level (ASAP 1); C-E and E-F get dummy
	// edges (common descendant J via I for C-E? C and E share descendant J).
	// Per the paper, C and F have no common ancestor or descendant... in
	// Fig. 4 all of C,E,F reach J, so the concrete statement differs from
	// our reconstruction; here we verify the definition, not the figure.
	g := paperExample()
	a := Analyze(g)
	c, _ := g.NodeByName("C")
	e, _ := g.NodeByName("E")
	if a.ASAP[c] != a.ASAP[e] {
		t.Fatalf("C and E should be same level: %d vs %d", a.ASAP[c], a.ASAP[e])
	}
	pairs := a.SameLevelPairs()
	found := false
	for _, p := range pairs {
		if (p.A == c && p.B == e) || (p.A == e && p.B == c) {
			found = true
		}
		if a.ASAP[p.A] != a.ASAP[p.B] {
			t.Errorf("pair (%d,%d) not same level", p.A, p.B)
		}
		if !a.HaveCommonAncestor(p.A, p.B) && !a.HaveCommonDescendant(p.A, p.B) {
			t.Errorf("pair (%d,%d) lacks common ancestor/descendant", p.A, p.B)
		}
	}
	if !found {
		t.Error("C-E dummy edge missing")
	}
}

func TestTopoOrderDetectsCycle(t *testing.T) {
	g := New("cyc")
	a := g.AddNode("a", OpAdd)
	b := g.AddNode("b", OpAdd)
	g.AddEdge(a, b)
	g.Edges = append(g.Edges, Edge{ID: 1, From: b, To: a})
	g.succ[b] = append(g.succ[b], a)
	g.pred[a] = append(g.pred[a], b)
	if _, err := g.TopoOrder(); err == nil {
		t.Fatal("expected cycle error")
	}
}

func TestValidateRejectsSelfLoop(t *testing.T) {
	g := New("self")
	a := g.AddNode("a", OpAdd)
	g.Edges = append(g.Edges, Edge{ID: 0, From: a, To: a})
	if err := g.Validate(); err == nil {
		t.Fatal("expected self-loop error")
	}
}

func TestBuilderKernelShape(t *testing.T) {
	b := NewBuilder("axpy")
	base := b.Const("xbase")
	i := b.Const("i")
	addr := b.Addr("xaddr", base, i)
	x := b.Load("x", addr)
	aCoef := b.Const("a")
	ax := b.Mul("ax", aCoef, x)
	ybase := b.Const("ybase")
	yaddr := b.Addr("yaddr", ybase, i)
	y := b.Load("y", yaddr)
	sum := b.Add("sum", ax, y)
	b.Store("out", yaddr, sum)
	g := b.Graph()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.MemOpCount() != 3 {
		t.Errorf("mem ops = %d, want 3", g.MemOpCount())
	}
	st, _ := g.NodeByName("out")
	if g.OutDegree(st) != 0 {
		t.Error("store must be a sink")
	}
	an := Analyze(g)
	if an.ASAP[sum.ID()] <= an.ASAP[x.ID()] {
		t.Error("sum must be scheduled after load x")
	}
}

func TestRandomGraphInvariants(t *testing.T) {
	cfg := DefaultRandomConfig()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := Random(rng, cfg, "rnd")
		if err := g.Validate(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if g.NumNodes() < cfg.MinNodes || g.NumNodes() > cfg.MaxNodes {
			return false
		}
		for _, n := range g.Nodes {
			if n.Op == OpStore && g.OutDegree(n.ID) != 0 {
				t.Logf("seed %d: store %d has successors", seed, n.ID)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomIsDeterministic(t *testing.T) {
	g1 := Random(rand.New(rand.NewSource(7)), DefaultRandomConfig(), "a")
	g2 := Random(rand.New(rand.NewSource(7)), DefaultRandomConfig(), "a")
	if g1.NumNodes() != g2.NumNodes() || g1.NumEdges() != g2.NumEdges() {
		t.Fatal("same seed should give identical graphs")
	}
	for i := range g1.Edges {
		if g1.Edges[i] != g2.Edges[i] {
			t.Fatalf("edge %d differs", i)
		}
	}
}

func TestASAPALAPInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := Random(rng, DefaultRandomConfig(), "rnd")
		a := Analyze(g)
		for v := range g.Nodes {
			if a.ASAP[v] > a.ALAP[v] {
				return false
			}
			if a.ALAP[v] > a.CriticalPath {
				return false
			}
			for _, p := range g.Pred(v) {
				if a.ASAP[p] >= a.ASAP[v] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestAncestorDescendantDuality(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := Random(rng, DefaultRandomConfig(), "rnd")
		a := Analyze(g)
		for u := range g.Nodes {
			for v := range g.Nodes {
				if a.IsAncestor(u, v) != a.IsDescendant(v, u) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestUnrollScalesBody(t *testing.T) {
	g := paperExample()
	u := Unroll(g, 2)
	if err := u.Validate(); err != nil {
		t.Fatal(err)
	}
	// No consts in fig4, so a synthetic anchor node is added.
	want := 2*g.NumNodes() + 1
	if u.NumNodes() != want {
		t.Errorf("unrolled nodes = %d, want %d", u.NumNodes(), want)
	}
	if u.NumEdges() < 2*g.NumEdges() {
		t.Errorf("unrolled edges = %d, want >= %d", u.NumEdges(), 2*g.NumEdges())
	}
}

func TestUnrollSharesConstants(t *testing.T) {
	b := NewBuilder("k")
	c := b.Const("base")
	l := b.Load("x", c)
	b.Store("y", c, l)
	g := b.Graph()
	u := Unroll(g, 3)
	if err := u.Validate(); err != nil {
		t.Fatal(err)
	}
	consts := 0
	for _, n := range u.Nodes {
		if n.Op == OpConst {
			consts++
		}
	}
	if consts != 1 {
		t.Errorf("const nodes = %d, want 1 (shared)", consts)
	}
	if u.NumNodes() != 1+3*2 {
		t.Errorf("nodes = %d, want 7", u.NumNodes())
	}
}

func TestUnrollFactorOneClones(t *testing.T) {
	g := paperExample()
	u := Unroll(g, 1)
	if u.NumNodes() != g.NumNodes() || u.NumEdges() != g.NumEdges() {
		t.Fatal("factor-1 unroll must be a clone")
	}
	u.Nodes[0].Op = OpMul
	if g.Nodes[0].Op == OpMul {
		t.Fatal("clone must not alias original")
	}
}

func TestWriteDOT(t *testing.T) {
	g := paperExample()
	var buf bytes.Buffer
	if err := g.WriteDOT(&buf); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if !strings.Contains(s, "digraph") || !strings.Contains(s, "n0 ->") && !strings.Contains(s, "-> n") {
		t.Errorf("unexpected DOT output:\n%s", s)
	}
	if strings.Count(s, "->") != g.NumEdges() {
		t.Errorf("DOT edge count = %d, want %d", strings.Count(s, "->"), g.NumEdges())
	}
}

func TestNodesBetweenAndLevels(t *testing.T) {
	g := paperExample()
	a := Analyze(g)
	A, _ := g.NodeByName("A")
	J, _ := g.NodeByName("J")
	// Levels: 0:{A,B} 1:{C,D,E,F} 2:{G,H,I} 3:{J} -> between A and J: 7.
	if got := a.NodesBetween(A, J); got != 7 {
		t.Errorf("NodesBetween(A,J) = %d, want 7", got)
	}
	if got := a.NodesAtLevel(1); got != 4 {
		t.Errorf("NodesAtLevel(1) = %d, want 4", got)
	}
}

// TestLevelCountsMatchScan checks the prefix-count level queries against a
// scan of the ASAP values, for every level range around each random DFG.
func TestLevelCountsMatchScan(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		a := Analyze(Random(rand.New(rand.NewSource(seed)), DefaultRandomConfig(), "levels"))
		scan := func(lo, hi int) int {
			n := 0
			for _, l := range a.ASAP {
				if l > lo && l < hi {
					n++
				}
			}
			return n
		}
		for lo := -2; lo <= a.CriticalPath+2; lo++ {
			if got, want := a.NodesAtLevel(lo), scan(lo-1, lo+1); got != want {
				t.Fatalf("seed %d: NodesAtLevel(%d) = %d, scan %d", seed, lo, got, want)
			}
			for hi := -2; hi <= a.CriticalPath+2; hi++ {
				if got, want := a.NodesWithASAPBetween(lo, hi), scan(lo, hi); got != want {
					t.Fatalf("seed %d: NodesWithASAPBetween(%d,%d) = %d, scan %d", seed, lo, hi, got, want)
				}
			}
		}
		for u := range a.ASAP {
			for v := range a.ASAP {
				lo, hi := min(a.ASAP[u], a.ASAP[v]), max(a.ASAP[u], a.ASAP[v])
				if got, want := a.NodesBetween(u, v), scan(lo, hi); got != want {
					t.Fatalf("seed %d: NodesBetween(%d,%d) = %d, scan %d", seed, u, v, got, want)
				}
			}
		}
	}
}

func TestClosestCommonAncestorDescendant(t *testing.T) {
	g := paperExample()
	a := Analyze(g)
	D, _ := g.NodeByName("D")
	E, _ := g.NodeByName("E")
	B, _ := g.NodeByName("B")
	J, _ := g.NodeByName("J")
	anc, dist, ok := a.ClosestCommonAncestor(D, E)
	if !ok || anc != B || dist != 1 {
		t.Errorf("CCA(D,E) = (%d,%d,%v), want (B=%d,1,true)", anc, dist, ok, B)
	}
	desc, _, ok := a.ClosestCommonDescendant(D, E)
	if !ok || desc != J {
		t.Errorf("CCD(D,E) = (%d,%v), want (J=%d,true)", desc, ok, J)
	}
	A, _ := g.NodeByName("A")
	if _, _, ok := a.ClosestCommonAncestor(A, B); ok {
		t.Error("A and B have no common ancestor")
	}
	h := NewHops(a)
	if anc, dist, ok := h.ClosestCommonAncestor(D, E); !ok || anc != B || dist != 1 {
		t.Errorf("Hops CCA(D,E) = (%d,%d,%v), want (B=%d,1,true)", anc, dist, ok, B)
	}
	if desc, _, ok := h.ClosestCommonDescendant(D, E); !ok || desc != J {
		t.Errorf("Hops CCD(D,E) = (%d,%v), want (J=%d,true)", desc, ok, J)
	}
	if _, _, ok := h.ClosestCommonAncestor(A, B); ok {
		t.Error("Hops: A and B have no common ancestor")
	}
}

func TestParseOpKind(t *testing.T) {
	k, err := ParseOpKind("mul")
	if err != nil || k != OpMul {
		t.Fatalf("ParseOpKind(mul) = %v, %v", k, err)
	}
	if _, err := ParseOpKind("bogus"); err == nil {
		t.Fatal("expected error for unknown op")
	}
}

func TestCloneIndependence(t *testing.T) {
	g := paperExample()
	c := g.Clone()
	c.AddNode("extra", OpMul)
	if g.NumNodes() == c.NumNodes() {
		t.Fatal("clone must be independent")
	}
	if err := c.Validate(); err == nil {
		// extra node is disconnected -> Validate must fail.
		t.Fatal("expected connectivity error after adding isolated node")
	}
}

func TestComputeMetrics(t *testing.T) {
	g := paperExample()
	m := ComputeMetrics(g)
	if m.Nodes != 10 || m.Edges != 12 {
		t.Fatalf("size wrong: %+v", m)
	}
	if m.CriticalPath != 3 || m.Width != 4 {
		t.Fatalf("cp/width wrong: %+v", m)
	}
	if m.MaxFanout != 4 { // node B
		t.Fatalf("max fanout = %d, want 4", m.MaxFanout)
	}
	if m.Density <= 0 || m.Density > 1 {
		t.Fatalf("density out of range: %v", m.Density)
	}
	if m.SameLevelPairs == 0 {
		t.Fatal("same-level pairs missing")
	}
}
