package arch

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"github.com/lisa-go/lisa/internal/dfg"
	"github.com/lisa-go/lisa/internal/kernels"
	"github.com/lisa-go/lisa/internal/rgraph"
)

// targetPins holds one SHA-256 per ExtendedTargets entry (targetDigest). A
// change to any of them changes what the mapper, the labels and the GNN see
// of that target.
var targetPins = map[string]string{
	"cgra-4x4":           "28714b62a458822ced721e891634bb105fae0bedf86602d6d19a47fd1ae898e4",
	"cgra-8x8":           "6d5c6b52b881711d55b3668ec61300f6b5ecd39a9f416d62cf3cc0640b43d2c6",
	"cgra-3x3":           "8d020ef8b3e24dd6f14ad1d95b628834fdc0c92c91559202807340d15604be44",
	"cgra-4x4-lessroute": "41c026dc221eae87d9a90816fe76e6afdbefa247f2888aeceb3b6e21364f3726",
	"cgra-4x4-lessmem":   "77480b254c3eb40a224d5cb766e5d1249a61119c374a9ce4997309dc363b06a9",
	"systolic-5x5":       "a21afcbe40c096fbe4d94a82d51eddcc10402aeb00010605c14cb7e33e9c75f1",
	"cgra-4x4-torus":     "f1ea712c85836bc03b571efe242d91bcee56dbf5692596e1caa97f980221adf3",
	"cgra-4x4-hetero":    "76e7c718a8bb0a7c116a55024b3bce68b880ab748b1c70b1d6f626e0fc690abf",
}

func TestTargetsPinned(t *testing.T) {
	gs := pinDFGs()
	for _, a := range ExtendedTargets() {
		if got, want := targetDigest(a, gs), targetPins[a.Name()]; got != want {
			t.Errorf("%s digest = %s, want %s", a.Name(), got, want)
		}
	}
}

// targetDigest hashes everything a target tells the mapper: Coord,
// SupportsOp and SpatialDistance of every PE, MinII on gs, and the resource
// graph at every II from 1 to MaxII, nodes and adjacency in order.
func targetDigest(a Arch, gs []*dfg.Graph) string {
	h := sha256.New()
	n := a.NumPEs()
	fmt.Fprintln(h, n, a.MaxII())
	for p := 0; p < n; p++ {
		r, c := a.Coord(p)
		fmt.Fprint(h, r, c, ":")
		for k := 0; k < dfg.NumOpKinds(); k++ {
			fmt.Fprint(h, " ", a.SupportsOp(p, dfg.OpKind(k)))
		}
		for q := 0; q < n; q++ {
			fmt.Fprint(h, " ", a.SpatialDistance(p, q))
		}
		fmt.Fprintln(h)
	}
	for _, g := range gs {
		fmt.Fprint(h, a.MinII(g), " ")
	}
	for ii := 1; ii <= a.MaxII(); ii++ {
		g := a.BuildRGraph(ii)
		for id, nd := range g.Nodes {
			fmt.Fprintln(h, ii, nd, g.Out(id))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// pinDFGs returns the DFGs MinII is pinned on: every built-in kernel at
// unroll 1 to 8, and 400 seeded random DFGs of 10 to 89 nodes.
func pinDFGs() []*dfg.Graph {
	var gs []*dfg.Graph
	for _, name := range append(kernels.Names(), kernels.ExtendedNames()...) {
		k, err := kernels.Lookup(name)
		if err != nil {
			panic(err)
		}
		for f := 1; f <= 8; f++ {
			gs = append(gs, k.Build(f))
		}
	}
	rng := rand.New(rand.NewSource(1))
	cfg := dfg.DefaultRandomConfig()
	for i := 0; i < 400; i++ {
		cfg.MaxNodes = cfg.MinNodes + i%80
		gs = append(gs, dfg.Random(rng, cfg, "pin"))
	}
	return gs
}

func TestTorusDistanceWraps(t *testing.T) {
	tor := NewTorus4x4()
	// Opposite corners: mesh distance 6, torus distance 2.
	a := tor.PEAt(0, 0)
	b := tor.PEAt(3, 3)
	if d := tor.SpatialDistance(a, b); d != 2 {
		t.Fatalf("torus corner distance = %d, want 2", d)
	}
	if d := tor.SpatialDistance(a, a); d != 0 {
		t.Fatal("identity distance broken")
	}
	// Distance never exceeds half the perimeter.
	for x := 0; x < tor.NumPEs(); x++ {
		for y := 0; y < tor.NumPEs(); y++ {
			if tor.SpatialDistance(x, y) > 4 {
				t.Fatalf("torus distance (%d,%d) too large", x, y)
			}
		}
	}
}

func TestTorusRGraphHasWrapLinks(t *testing.T) {
	tor := NewTorus4x4()
	g := tor.BuildRGraph(2)
	// FU(0,0) must reach FU at (0, 3) in one hop via the wrap link.
	src := g.FUAt(tor.PEAt(0, 0), 0)
	dst := g.FUAt(tor.PEAt(0, 3), 1)
	found := false
	for _, nb := range g.Out(src) {
		if int(nb) == dst {
			found = true
		}
	}
	if !found {
		t.Fatal("wrap link missing")
	}
	// The register bank at (0,0) reads out across the wrap too.
	found = false
	for id, n := range g.Nodes {
		if n.Kind != rgraph.KindReg || n.PE != tor.PEAt(0, 0) || n.Cycle != 0 {
			continue
		}
		for _, nb := range g.Out(id) {
			if int(nb) == dst {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("reg->FU wrap link missing")
	}
	if err := Validate(tor); err != nil {
		t.Fatal(err)
	}
}

func TestHeteroOpSupport(t *testing.T) {
	h := NewHetero4x4()
	mulPEs := 0
	for pe := 0; pe < h.NumPEs(); pe++ {
		if h.SupportsOp(pe, dfg.OpMul) {
			mulPEs++
			if !checkerboard(h, pe) {
				t.Fatalf("PE %d supports mul without a multiplier", pe)
			}
		}
		if !h.SupportsOp(pe, dfg.OpAdd) || !h.SupportsOp(pe, dfg.OpLoad) {
			t.Fatalf("PE %d must keep add/mem support", pe)
		}
	}
	if mulPEs != 8 {
		t.Fatalf("multiplier PEs = %d, want 8 (checkerboard)", mulPEs)
	}
}

func TestHeteroRGraphMasks(t *testing.T) {
	h := NewHetero4x4()
	g := h.BuildRGraph(1)
	for _, n := range g.Nodes {
		if n.Kind != rgraph.KindFU {
			continue
		}
		allows := n.AllowsOp(uint8(dfg.OpMul))
		if allows != checkerboard(h, n.PE) {
			t.Fatalf("FU mask inconsistent with multiplier placement at PE %d", n.PE)
		}
	}
}

func TestHeteroMinIIAccountsForMultipliers(t *testing.T) {
	// A DFG with 17 muls on 8 multiplier PEs needs II >= 3.
	g := dfg.New("muls")
	prev := g.AddNode("", dfg.OpLoad)
	for i := 0; i < 17; i++ {
		cur := g.AddNode("", dfg.OpMul)
		g.AddEdge(prev, cur)
		prev = cur
	}
	h := NewHetero4x4()
	if got := h.MinII(g); got != 3 {
		t.Fatalf("hetero MinII = %d, want 3", got)
	}
	base := NewBaseline4x4()
	if got := base.MinII(g); got != 2 {
		t.Fatalf("baseline MinII = %d, want 2", got)
	}
	// 9 muls and 9 shifts share the 8 multiplier PEs: II >= 3, although
	// each kind alone would fit in 2.
	g = dfg.New("mul-shl")
	for i := 0; i < 9; i++ {
		g.AddNode("", dfg.OpMul)
		g.AddNode("", dfg.OpShl)
	}
	if got := h.MinII(g); got != 3 {
		t.Fatalf("hetero MinII on muls and shifts = %d, want 3", got)
	}
}

// checkerboard reports whether a PE of the 4×4 hetero CGRA carries the
// multiplier cluster.
func checkerboard(a Arch, pe int) bool {
	r, c := a.Coord(pe)
	return (r+c)%2 == 0
}

func TestExtendedTargetsValid(t *testing.T) {
	ts := ExtendedTargets()
	if len(ts) != 8 {
		t.Fatalf("extended targets = %d, want 8", len(ts))
	}
	for _, a := range ts {
		if err := Validate(a); err != nil {
			t.Errorf("%s: %v", a.Name(), err)
		}
	}
}
