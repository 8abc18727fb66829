package dfg_test

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/lisa-go/lisa/internal/dfg"
	"github.com/lisa-go/lisa/internal/kernels"
)

// checkHopsAgainstOracle compares every same-level-pair query a fresh Hops
// answers on g with the per-pair BFS oracle: the same ancestor and
// descendant, the same distances to them, and the same path node counts
// between them and each pair node. With allPairs it also compares the path
// node count of every ordered (s, t), reachable or not.
func checkHopsAgainstOracle(t *testing.T, g *dfg.Graph, allPairs bool) int {
	t.Helper()
	an := dfg.Analyze(g)
	h := dfg.NewHops(an)
	pairs := an.SameLevelPairs()
	for _, p := range pairs {
		wa, wd, wok := an.ClosestCommonAncestor(p.A, p.B)
		ga, gd, gok := h.ClosestCommonAncestor(p.A, p.B)
		if ga != wa || gd != wd || gok != wok {
			t.Fatalf("%s: CCA(%d,%d) = (%d,%d,%v), oracle (%d,%d,%v)", g.Name, p.A, p.B, ga, gd, gok, wa, wd, wok)
		}
		if wok {
			for _, v := range []int{p.A, p.B} {
				if got, want := h.PathNodeCount(wa, v), an.PathNodeCount(wa, v); got != want {
					t.Fatalf("%s: PathNodeCount(%d,%d) = %d, oracle %d", g.Name, wa, v, got, want)
				}
			}
		}
		wa, wd, wok = an.ClosestCommonDescendant(p.A, p.B)
		ga, gd, gok = h.ClosestCommonDescendant(p.A, p.B)
		if ga != wa || gd != wd || gok != wok {
			t.Fatalf("%s: CCD(%d,%d) = (%d,%d,%v), oracle (%d,%d,%v)", g.Name, p.A, p.B, ga, gd, gok, wa, wd, wok)
		}
		if wok {
			for _, v := range []int{p.A, p.B} {
				if got, want := h.PathNodeCount(v, wa), an.PathNodeCount(v, wa); got != want {
					t.Fatalf("%s: PathNodeCount(%d,%d) = %d, oracle %d", g.Name, v, wa, got, want)
				}
			}
		}
	}
	if allPairs {
		for s := 0; s < g.NumNodes(); s++ {
			for u := 0; u < g.NumNodes(); u++ {
				if got, want := h.PathNodeCount(s, u), an.PathNodeCount(s, u); got != want {
					t.Fatalf("%s: PathNodeCount(%d,%d) = %d, oracle %d", g.Name, s, u, got, want)
				}
			}
		}
	}
	return len(pairs)
}

// TestHopsMatchesOracle is the differential test of the BFS table: every
// same-level pair of the 12 PolyBench kernels at unroll 1, 2 and 4, and of
// a few hundred §V random DFGs, must get the oracle's answers.
func TestHopsMatchesOracle(t *testing.T) {
	pairs := 0
	for _, name := range kernels.Names() {
		for _, f := range []int{1, 2, 4} {
			g := dfg.Unroll(kernels.MustByName(name), f)
			g.Name = fmt.Sprintf("%s×%d", name, f)
			pairs += checkHopsAgainstOracle(t, g, false)
		}
	}
	for seed := int64(0); seed < 300; seed++ {
		g := dfg.Random(rand.New(rand.NewSource(seed)), dfg.DefaultRandomConfig(), fmt.Sprintf("random-%d", seed))
		pairs += checkHopsAgainstOracle(t, g, seed < 50)
	}
	if pairs == 0 {
		t.Fatal("no same-level pairs checked")
	}
}
