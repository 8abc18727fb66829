package labels

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/lisa-go/lisa/internal/dfg"
)

func chainGraph(n int) *dfg.Graph {
	g := dfg.New("chain")
	prev := g.AddNode("", dfg.OpLoad)
	for i := 1; i < n; i++ {
		cur := g.AddNode("", dfg.OpAdd)
		g.AddEdge(prev, cur)
		prev = cur
	}
	return g
}

func diamondGraph() *dfg.Graph {
	g := dfg.New("diamond")
	a := g.AddNode("a", dfg.OpLoad)
	b := g.AddNode("b", dfg.OpAdd)
	c := g.AddNode("c", dfg.OpMul)
	d := g.AddNode("d", dfg.OpStore)
	g.AddEdge(a, b)
	g.AddEdge(a, c)
	g.AddEdge(b, d)
	g.AddEdge(c, d)
	return g
}

func TestMakePairCanonical(t *testing.T) {
	if MakePair(5, 2) != (Pair{A: 2, B: 5}) {
		t.Fatal("pair not canonical")
	}
	if MakePair(2, 5) != MakePair(5, 2) {
		t.Fatal("pair order-dependent")
	}
}

func TestInitialLabels(t *testing.T) {
	g := diamondGraph()
	an := dfg.Analyze(g)
	l := Initial(an)
	if err := l.Validate(g); err != nil {
		t.Fatal(err)
	}
	// Order == ASAP, temporal == 1, spatial == 0 (§V-B).
	for v := range g.Nodes {
		if l.Order[v] != float64(an.ASAP[v]) {
			t.Errorf("order[%d] = %v, want ASAP %d", v, l.Order[v], an.ASAP[v])
		}
	}
	for e := range l.Temporal {
		if l.Temporal[e] != 1 || l.Spatial[e] != 0 {
			t.Errorf("edge %d init = (%v,%v), want (0,1)", e, l.Spatial[e], l.Temporal[e])
		}
	}
	// b and c are same-level with common ancestor a and descendant d at
	// distance 1 each -> label 2 = 1.
	p := MakePair(1, 2)
	if got := l.SameLevel[p]; got != 1 {
		t.Errorf("same-level init = %v, want 1", got)
	}
}

func TestExtract(t *testing.T) {
	g := diamondGraph()
	an := dfg.Analyze(g)
	m := &MappingStats{
		II:       2,
		NodePE:   []int{0, 1, 2, 3},
		NodeTime: []int{0, 1, 1, 2},
		EdgeHops: []int{1, 1, 1, 1},
		SpatialDist: func(a, b int) int {
			d := a - b
			if d < 0 {
				d = -d
			}
			return d
		},
	}
	l := Extract(an, m)
	if err := l.Validate(g); err != nil {
		t.Fatal(err)
	}
	// Schedule order normalized to critical path (2): node d at time 2,
	// max time 2 -> order 2.
	if l.Order[3] != 2 {
		t.Errorf("order[d] = %v, want 2", l.Order[3])
	}
	if l.Order[0] != 0 {
		t.Errorf("order[a] = %v, want 0", l.Order[0])
	}
	// Edge a->c spans PEs 0 and 2 -> spatial 2.
	if l.Spatial[1] != 2 {
		t.Errorf("spatial[a->c] = %v, want 2", l.Spatial[1])
	}
	if l.SameLevel[MakePair(1, 2)] != 1 {
		t.Errorf("same-level(b,c) = %v, want 1", l.SameLevel[MakePair(1, 2)])
	}
}

func TestSelectAndCombine(t *testing.T) {
	g := chainGraph(4)
	an := dfg.Analyze(g)
	mk := func(ii, cost int, orderBase float64) Candidate {
		l := Initial(an)
		for v := range l.Order {
			l.Order[v] = orderBase + float64(v)
		}
		return Candidate{Labels: l, II: ii, RoutingCost: cost}
	}
	// Candidates: II 3 (ignored), II 2 cost 10 (standard), II 2 cost 11
	// (within 1.15x), II 2 cost 20 (excluded).
	combined, n := SelectAndCombine([]Candidate{
		mk(3, 1, 100), mk(2, 10, 0), mk(2, 11, 2), mk(2, 20, 50),
	})
	if n != 2 {
		t.Fatalf("survivors = %d, want 2", n)
	}
	// Averaged order of the two survivors: (0+2)/2 = 1 at node 0.
	if combined.Order[0] != 1 {
		t.Fatalf("combined order[0] = %v, want 1", combined.Order[0])
	}
	if l, n := SelectAndCombine(nil); l != nil || n != 0 {
		t.Fatal("empty candidates must return nil")
	}
}

func TestFilterAdmit(t *testing.T) {
	f := DefaultFilterConfig()
	// Hitting the minimum II admits with a single candidate (paper §V-C).
	if _, ok := f.Admit(2, 2, 1); !ok {
		t.Error("min-II label must be admitted")
	}
	// Far from optimal with few candidates: rejected.
	if _, ok := f.Admit(10, 2, 1); ok {
		t.Error("poor label with one candidate must be rejected")
	}
	// Far from optimal but many candidates push the score up.
	if _, ok := f.Admit(10, 2, 5); !ok {
		t.Error("many consistent candidates should be admitted")
	}
	if _, ok := f.Admit(3, 2, 0); ok {
		t.Error("zero candidates is never admissible")
	}
}

func TestCloneIndependence(t *testing.T) {
	g := diamondGraph()
	l := Initial(dfg.Analyze(g))
	c := l.Clone()
	c.Order[0] = 99
	c.SameLevel[MakePair(1, 2)] = 77
	if l.Order[0] == 99 || l.SameLevel[MakePair(1, 2)] == 77 {
		t.Fatal("clone aliases original")
	}
}

func TestInitialAlwaysValidOnRandomGraphs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := dfg.Random(rng, dfg.DefaultRandomConfig(), "r")
		l := Initial(dfg.Analyze(g))
		return l.Validate(g) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesBadShapes(t *testing.T) {
	g := diamondGraph()
	l := Initial(dfg.Analyze(g))
	l.Order = l.Order[:1]
	if l.Validate(g) == nil {
		t.Fatal("short Order must fail validation")
	}
}

// TestCheckFinite: finite labels pass, and the first NaN or ±Inf label is
// named in a fixed order whatever the map's iteration order.
func TestCheckFinite(t *testing.T) {
	g := diamondGraph()
	fresh := func() *Labels {
		l := Initial(dfg.Analyze(g))
		l.SameLevel[MakePair(1, 2)] = 1
		l.SameLevel[MakePair(0, 3)] = 2
		l.SameLevel[MakePair(1, 3)] = 3
		return l
	}
	if err := fresh().CheckFinite(); err != nil {
		t.Fatalf("finite labels: %v", err)
	}
	inf, nan := math.Inf(1), math.NaN()
	for _, c := range []struct {
		poison func(*Labels)
		want   string
	}{
		{func(l *Labels) { l.Order[2] = nan; l.Temporal[0] = inf }, "labels: order[2] = NaN is not finite"},
		{func(l *Labels) { l.Spatial[1] = -inf }, "labels: spatial[1] = -Inf is not finite"},
		{func(l *Labels) { l.Temporal[3] = inf }, "labels: temporal[3] = +Inf is not finite"},
		{func(l *Labels) {
			l.SameLevel[MakePair(1, 3)] = nan
			l.SameLevel[MakePair(1, 2)] = inf
		}, "labels: sameLevel[1,2] = +Inf is not finite"},
	} {
		for i := 0; i < 8; i++ { // map order varies between iterations
			l := fresh()
			c.poison(l)
			if err := l.CheckFinite(); err == nil || err.Error() != c.want {
				t.Fatalf("CheckFinite = %v, want %q", err, c.want)
			}
		}
	}
}
