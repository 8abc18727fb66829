package mapper

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"

	"github.com/lisa-go/lisa/internal/arch"
	"github.com/lisa-go/lisa/internal/kernels"
)

// mapDigestSHA256 pins the mapper's result bytes over the PolyBench mix
// TestMapDigestPinned runs. Any change to an annealer decision, the II
// sweep, the portfolio's chain plan or its winner rule moves it.
const mapDigestSHA256 = "5157b5fe708c76012d3225ead45de6f12eadcb9ccb049d9adbc55f004c3ad24d"

// TestMapDigestPinned maps the 12 PolyBench kernels at unroll 1 and 2 with
// SA and LISA, single-chain and as a 4-chain portfolio, and pins a digest of
// every result: its wire JSON with Duration zeroed and Portfolio omitted,
// then the portfolio's width, winner, variant and budgets. Float results
// are only pinned on amd64: other architectures may fuse multiply-adds and
// round the acceptance test differently.
func TestMapDigestPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("mapper bytes are pinned on amd64, not %s", runtime.GOARCH)
	}
	ar := arch.NewBaseline4x4()
	h := sha256.New()
	for _, name := range kernels.Names() {
		k, err := kernels.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, unroll := range []int{1, 2} {
			g := k.Build(unroll)
			for _, alg := range []Algorithm{AlgSA, AlgLISA} {
				for _, restarts := range []int{1, 4} {
					res := mustMap(t, ar, g, alg, nil, Options{Seed: 1, MaxMoves: 600, Restarts: restarts})
					p := res.Portfolio
					res.Duration, res.Portfolio = 0, nil
					b, err := json.Marshal(res)
					if err != nil {
						t.Fatal(err)
					}
					h.Write(b)
					if p != nil {
						fmt.Fprintf(h, "\n%d %d %s %v\n", p.Restarts, p.Winner, p.Variant, p.Budgets)
					}
				}
			}
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != mapDigestSHA256 {
		t.Fatalf("mapper result digest = %s, want %s", got, mapDigestSHA256)
	}
}
