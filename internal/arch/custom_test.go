package arch

import (
	"strings"
	"testing"

	"github.com/lisa-go/lisa/internal/dfg"
)

const sampleSpec = `{
  "name": "diag-3x3",
  "rows": 3, "cols": 3,
  "maxII": 8,
  "defaults": {"registers": 2, "ops": "all"},
  "memory": {"policy": "leftColumn"},
  "links": {"mesh": true, "diagonal": true},
  "pes": [
    {"at": [1, 1], "ops": ["mul", "add"], "registers": 0}
  ]
}`

func TestLoadArchFromSpec(t *testing.T) {
	c, err := LoadArch(strings.NewReader(sampleSpec))
	if err != nil {
		t.Fatal(err)
	}
	if c.Name() != "diag-3x3" || c.NumPEs() != 9 || c.MaxII() != 8 {
		t.Fatalf("basic fields wrong: %s %d %d", c.Name(), c.NumPEs(), c.MaxII())
	}
	if err := Validate(c); err != nil {
		t.Fatal(err)
	}
	// Memory policy: left column only.
	for pe := 0; pe < c.NumPEs(); pe++ {
		_, col := c.Coord(pe)
		if c.SupportsOp(pe, dfg.OpLoad) != (col == 0) {
			t.Errorf("PE %d load support inconsistent with leftColumn", pe)
		}
	}
	// Per-PE override at the center.
	center := c.PEAt(1, 1)
	if c.SupportsOp(center, dfg.OpSub) || !c.SupportsOp(center, dfg.OpMul) {
		t.Error("center PE override not applied")
	}
}

func TestCustomDiagonalDistanceAndLinks(t *testing.T) {
	c, err := LoadArch(strings.NewReader(sampleSpec))
	if err != nil {
		t.Fatal(err)
	}
	// Chebyshev: opposite corners of a 3x3 are 2 apart with diagonals.
	if d := c.SpatialDistance(c.PEAt(0, 0), c.PEAt(2, 2)); d != 2 {
		t.Fatalf("diagonal distance = %d, want 2", d)
	}
	g := c.BuildRGraph(2)
	// FU(0,0) must link to the diagonal neighbor (1,1).
	src := g.FUAt(c.PEAt(0, 0), 0)
	dst := g.FUAt(c.PEAt(1, 1), 1)
	found := false
	for _, nb := range g.Out(src) {
		if int(nb) == dst {
			found = true
		}
	}
	if !found {
		t.Fatal("diagonal link missing from resource graph")
	}
	// Zero-register PEs get no register node.
	for _, n := range g.Nodes {
		if n.PE == c.PEAt(1, 1) && n.Kind != 0 /* KindFU */ {
			t.Fatal("center PE must have no register bank")
		}
	}
}

func TestCustomMinIIPerOpClass(t *testing.T) {
	spec := `{
	  "name": "one-mul", "rows": 2, "cols": 2,
	  "defaults": {"ops": ["add", "load", "store", "const"]},
	  "pes": [{"at": [0, 0], "ops": ["mul", "add", "load", "store", "const"]}]
	}`
	c, err := LoadArch(strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	// 3 muls on a fabric with a single multiplier PE -> II >= 3.
	g := dfg.New("m")
	prev := g.AddNode("", dfg.OpLoad)
	for i := 0; i < 3; i++ {
		cur := g.AddNode("", dfg.OpMul)
		g.AddEdge(prev, cur)
		prev = cur
	}
	if got := c.MinII(g); got != 3 {
		t.Fatalf("MinII = %d, want 3", got)
	}
}

func TestSpecValidationErrors(t *testing.T) {
	bad := []string{
		`{}`,                             // no name
		`{"name":"x","rows":0,"cols":3}`, // bad grid
		`{"name":"x","rows":2,"cols":2,"memory":{"policy":"bogus"}}`,
		`{"name":"x","rows":2,"cols":2,"memory":{"policy":"custom"}}`,       // no pes
		`{"name":"x","rows":2,"cols":2,"pes":[{"ops":["add"]}]}`,            // no at
		`{"name":"x","rows":2,"cols":2,"pes":[{"at":[5,0],"ops":["add"]}]}`, // off grid
		`{"name":"x","rows":2,"cols":2,"pes":[{"at":[0,0],"ops":["zap"]}]}`, // bad op
		`{"name":"x","rows":2,"cols":2,"defaults":{"ops":"sometimes"}}`,     // bad label
		`{"name":"x","rows":2,"cols":2,"bogusfield":1}`,                     // unknown field
		`{"name":"x","rows":2,"cols":2,"defaults":{"registers":-3}}`,        // negative registers
		`{"name":"x","rows":2,"cols":2,"pes":[{"at":[0,0],"registers":-1}]}`,
	}
	for _, src := range bad {
		if _, err := LoadArch(strings.NewReader(src)); err == nil {
			t.Errorf("spec %q should fail", src)
		}
	}
}

func TestCustomTorusWraps(t *testing.T) {
	spec := `{"name":"t","rows":4,"cols":4,"links":{"mesh":true,"torus":true}}`
	c, err := LoadArch(strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	if d := c.SpatialDistance(c.PEAt(0, 0), c.PEAt(3, 3)); d != 2 {
		t.Fatalf("torus distance = %d, want 2", d)
	}
	g := c.BuildRGraph(1)
	src := g.FUAt(c.PEAt(0, 0), 0)
	wrap := g.FUAt(c.PEAt(0, 3), 0)
	found := false
	for _, nb := range g.Out(src) {
		if int(nb) == wrap {
			found = true
		}
	}
	if !found {
		t.Fatal("torus wrap link missing")
	}
}

func TestCustomEquivalentToBuiltin(t *testing.T) {
	// A spec spelling out the 4x4 baseline's defaults must build exactly
	// the target NewBaseline4x4 builds from them.
	spec := `{"name":"clone-4x4","rows":4,"cols":4,"maxII":24,
	          "defaults":{"registers":4,"ops":"all"},
	          "memory":{"policy":"all"},"links":{"mesh":true}}`
	c, err := LoadArch(strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	gs := pinDFGs()
	if targetDigest(c, gs) != targetDigest(NewBaseline4x4(), gs) {
		t.Fatal("spec and built-in baseline differ")
	}
}
