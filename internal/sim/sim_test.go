package sim

import (
	"math/rand"
	"strings"
	"testing"

	"github.com/lisa-go/lisa/internal/arch"
	"github.com/lisa-go/lisa/internal/dfg"
	"github.com/lisa-go/lisa/internal/kernels"
	"github.com/lisa-go/lisa/internal/mapper"
)

func mapOK(t *testing.T, ar arch.Arch, g *dfg.Graph, seed int64) mapper.Result {
	t.Helper()
	res, err := mapper.Map(ar, g, mapper.AlgLISA, nil, mapper.Options{Seed: seed, MaxMoves: 1600})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatalf("mapping failed for %s on %s", g.Name, ar.Name())
	}
	return res
}

func TestSimulateGemm(t *testing.T) {
	ar := arch.NewBaseline4x4()
	g := kernels.MustByName("gemm")
	res := mapOK(t, ar, g, 1)
	tr, err := Run(ar, g, &res, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Stores) != 5 { // gemm has one store per iteration
		t.Fatalf("store events = %d, want 5", len(tr.Stores))
	}
	// Pipelining: total cycles must be well below serial execution
	// (5 iterations x schedule length) and consistent with II spacing.
	lastFire := tr.Stores[len(tr.Stores)-1].Cycle
	firstFire := tr.Stores[0].Cycle
	if lastFire-firstFire != 4*res.II {
		t.Errorf("store spacing %d cycles, want 4*II=%d", lastFire-firstFire, 4*res.II)
	}
	if tr.PeakResourceUse < 1 {
		t.Error("peak resource use not recorded")
	}
}

func TestSimulateAllKernelsOn4x4(t *testing.T) {
	ar := arch.NewBaseline4x4()
	for _, name := range kernels.Names() {
		g := kernels.MustByName(name)
		res, err := mapper.Map(ar, g, mapper.AlgLISA, nil, mapper.Options{Seed: 3, MaxMoves: 1600})
		if err != nil {
			t.Fatal(err)
		}
		if !res.OK {
			t.Errorf("%s: mapping failed", name)
			continue
		}
		if _, err := Run(ar, g, &res, 3); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestSimulateSystolic(t *testing.T) {
	ar := arch.NewSystolic5x5()
	g := kernels.MustByName("doitgen")
	res := mapOK(t, ar, g, 2)
	tr, err := Run(ar, g, &res, 4)
	if err != nil {
		t.Fatal(err)
	}
	// II = 1: a new iteration every cycle.
	if tr.II != 1 {
		t.Fatalf("systolic II = %d", tr.II)
	}
	if tr.Stores[len(tr.Stores)-1].Cycle-tr.Stores[0].Cycle != 3 {
		t.Error("systolic stores must fire on consecutive cycles")
	}
}

func TestSimulateCatchesCorruptedRoute(t *testing.T) {
	ar := arch.NewBaseline4x4()
	g := kernels.MustByName("syrk")
	res := mapOK(t, ar, g, 4)
	// Truncate one route: arrival time breaks (and Verify's EdgeHops check
	// is bypassed by fixing EdgeHops to match).
	bad := res
	bad.Routes = append([][]int(nil), res.Routes...)
	longest, li := 0, -1
	for i, p := range bad.Routes {
		if len(p) > longest {
			longest, li = len(p), i
		}
	}
	if longest < 3 {
		t.Skip("no multi-hop route to corrupt")
	}
	bad.Routes[li] = bad.Routes[li][:len(bad.Routes[li])-1]
	_, err := Run(ar, g, &bad, 2)
	if err == nil {
		t.Fatal("sim accepted a truncated route")
	}
	if !strings.Contains(err.Error(), "route") && !strings.Contains(err.Error(), "arrives") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestSimulateCatchesOverlapViolation(t *testing.T) {
	// Hand-build an illegal result: two nodes on the same FU modulo slot is
	// caught by Verify; instead corrupt a route to pass through an
	// op-occupied FU, which only the cycle-accurate occupancy sees.
	ar := arch.NewBaseline4x4()
	g := kernels.MustByName("gemm")
	res := mapOK(t, ar, g, 5)
	rg := ar.BuildRGraph(res.II)
	bad := res
	bad.Routes = append([][]int(nil), res.Routes...)
	// Find a 2+-hop route and redirect its mid node onto some op-occupied
	// FU at the right cycle, if adjacency allows; otherwise skip.
	for i, p := range bad.Routes {
		if len(p) != 3 {
			continue
		}
		mid := p[1]
		for v := range g.Nodes {
			fu := rg.FUAt(res.PE[v], res.Time[v]%res.II)
			if fu == mid || fu == p[0] || fu == p[2] {
				continue
			}
			if rg.Nodes[fu].Cycle != rg.Nodes[mid].Cycle {
				continue
			}
			if !hasRGEdge(rg, p[0], fu) || !hasRGEdge(rg, fu, p[2]) {
				continue
			}
			bad.Routes[i] = []int{p[0], fu, p[2]}
			if _, err := Run(ar, g, &bad, 2); err == nil {
				t.Fatal("sim accepted a route through a computing FU")
			}
			return
		}
	}
	t.Skip("no corruptible route found for this seed")
}

func TestReferenceDeterministicAndIterationDependent(t *testing.T) {
	g := kernels.MustByName("atax")
	a, err := Reference(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Reference(g, 3)
	if len(a) != len(b) {
		t.Fatal("reference not deterministic")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("reference not deterministic")
		}
	}
	// Loads stream new data each iteration, so values should change.
	same := true
	for i := 1; i < len(a); i++ {
		if a[i].Iteration != a[0].Iteration && a[i].Node == a[0].Node &&
			a[i].Value != a[0].Value {
			same = false
		}
	}
	if same && len(a) > 2 {
		t.Error("store values identical across iterations; loads not streaming")
	}
}

func TestSimulateRandomDFGs(t *testing.T) {
	ar := arch.NewBaseline4x4()
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := dfg.Random(rng, dfg.DefaultRandomConfig(), "fuzz")
		res, err := mapper.Map(ar, g, mapper.AlgLISA, nil, mapper.Options{Seed: seed, MaxMoves: 1200})
		if err != nil {
			t.Fatal(err)
		}
		if !res.OK {
			continue
		}
		if _, err := Run(ar, g, &res, 3); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	ar := arch.NewBaseline4x4()
	g := kernels.MustByName("gemm")
	res := mapper.Result{OK: false}
	if _, err := Run(ar, g, &res, 1); err == nil {
		t.Fatal("failed result must be rejected")
	}
	ok := mapOK(t, ar, g, 1)
	if _, err := Run(ar, g, &ok, 0); err == nil {
		t.Fatal("zero iterations must be rejected")
	}
}
