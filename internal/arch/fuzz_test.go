package arch

import (
	"strings"
	"testing"

	"github.com/lisa-go/lisa/internal/dfg"
)

func FuzzParseSpec(f *testing.F) {
	f.Add(sampleSpec)
	f.Add(`{"name":"x","rows":2,"cols":2}`)
	f.Add(`{"name":"x","rows":1,"cols":1,"links":{"torus":true}}`)
	f.Add(`{"name":"x","rows":2,"cols":2,"memory":{"policy":"custom","pes":[[0,0]]}}`)
	f.Add(`{"rows":-1}`)
	// Three of every op kind, so every group of kinds has ops to bound.
	g := dfg.New("every-op")
	for i := 0; i < 3*dfg.NumOpKinds(); i++ {
		g.AddNode("", dfg.OpKind(i%dfg.NumOpKinds()))
	}
	f.Fuzz(func(t *testing.T, src string) {
		s, err := ParseSpec(strings.NewReader(src))
		if err != nil {
			return
		}
		// A mutated "rows":99999999 must not exhaust memory in Build.
		if s.Rows > 64 || s.Cols > 64 {
			return
		}
		c, err := s.Build()
		if err != nil {
			t.Fatalf("parsed spec does not build: %v", err)
		}
		// Anything accepted must pass the generic validation and build a
		// non-empty resource graph at II=1.
		if err := Validate(c); err != nil {
			t.Fatalf("accepted invalid arch: %v", err)
		}
		if ii, compute := c.MinII(g), ceilDiv(g.NumNodes(), c.NumPEs()); ii < 1 || ii < compute {
			t.Fatalf("MinII = %d, below 1 or the compute bound %d", ii, compute)
		}
	})
}
