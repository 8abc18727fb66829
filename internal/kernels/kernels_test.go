package kernels

import (
	"testing"

	"github.com/lisa-go/lisa/internal/dfg"
)

func TestAllKernelsValid(t *testing.T) {
	for _, name := range Names() {
		g, err := ByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if g.NumNodes() < 10 || g.NumNodes() > 30 {
			t.Errorf("%s: %d nodes, want 10..30 (CGRA-ME PolyBench range)", name, g.NumNodes())
		}
		// Every kernel reads and writes memory.
		loads, stores := 0, 0
		for _, n := range g.Nodes {
			switch n.Op {
			case dfg.OpLoad:
				loads++
			case dfg.OpStore:
				stores++
			}
		}
		if loads == 0 || stores == 0 {
			t.Errorf("%s: loads=%d stores=%d", name, loads, stores)
		}
		if loads > 5 {
			t.Errorf("%s: %d loads exceed the systolic left-edge capacity", name, loads)
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("nope"); err == nil {
		t.Fatal("expected error")
	}
}

func TestKernelsAreFreshCopies(t *testing.T) {
	g1 := MustByName("gemm")
	g2 := MustByName("gemm")
	g1.Nodes[0].Op = dfg.OpNop
	if g2.Nodes[0].Op == dfg.OpNop {
		t.Fatal("kernels must not share state")
	}
}

func TestTrmmHasGuardOps(t *testing.T) {
	g := MustByName("trmm")
	hasCmp, hasSel := false, false
	for _, n := range g.Nodes {
		if n.Op == dfg.OpCmp {
			hasCmp = true
		}
		if n.Op == dfg.OpSelect {
			hasSel = true
		}
	}
	if !hasCmp || !hasSel {
		t.Fatal("trmm must carry its triangular guard (cmp + select)")
	}
	// All other kernels must be systolic-compatible op mixes.
	for _, name := range Names() {
		if name == "trmm" {
			continue
		}
		g := MustByName(name)
		for _, n := range g.Nodes {
			switch n.Op {
			case dfg.OpLoad, dfg.OpStore, dfg.OpMul, dfg.OpAdd, dfg.OpConst:
			default:
				t.Errorf("%s: op %s not executable on the systolic array", name, n.Op)
			}
		}
	}
}

func TestUnrolledSets(t *testing.T) {
	for _, name := range UnrolledNames4x4() {
		g, err := Unrolled(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Validate(); err != nil {
			t.Errorf("%s unrolled: %v", name, err)
		}
		base := MustByName(name)
		if g.NumNodes() <= base.NumNodes() {
			t.Errorf("%s unrolled should be larger: %d vs %d", name, g.NumNodes(), base.NumNodes())
		}
	}
	if len(UnrolledNames8x8()) != 8 {
		t.Fatalf("Fig 9f needs 8 unrolled DFGs, have %d", len(UnrolledNames8x8()))
	}
	for _, name := range UnrolledNames8x8() {
		if _, err := Unrolled(name); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestSyr2kIsDensest(t *testing.T) {
	// The paper leans on syr2k being hard for vanilla SA; sanity-check that
	// it has the widest const fanout of the suite.
	g := MustByName("syr2k")
	k, ok := g.NodeByName("k")
	if !ok {
		t.Fatal("syr2k must have offset node k")
	}
	if g.OutDegree(k) < 4 {
		t.Errorf("syr2k offset fanout = %d, want >= 4", g.OutDegree(k))
	}
}

func TestExtendedKernelsValid(t *testing.T) {
	for _, name := range ExtendedNames() {
		g, err := ByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		loads := 0
		for _, n := range g.Nodes {
			if n.Op == dfg.OpLoad {
				loads++
			}
		}
		if loads == 0 || loads > 6 {
			t.Errorf("%s: %d loads out of expected range", name, loads)
		}
		// Extended kernels must not collide with the paper's twelve.
		for _, core := range Names() {
			if core == name {
				t.Errorf("%s duplicates a core kernel", name)
			}
		}
	}
}

func TestCholeskyUsesDivision(t *testing.T) {
	h := map[dfg.OpKind]int{}
	for _, n := range MustByName("cholesky").Nodes {
		h[n.Op]++
	}
	if h[dfg.OpDiv] != 1 || h[dfg.OpSub] != 1 {
		t.Fatalf("cholesky op mix wrong: %v", h)
	}
}
