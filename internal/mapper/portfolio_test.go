package mapper

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"github.com/lisa-go/lisa/internal/arch"
	"github.com/lisa-go/lisa/internal/dfg"
	"github.com/lisa-go/lisa/internal/fault"
	"github.com/lisa-go/lisa/internal/kernels"
)

// resultBytes serializes a Result with the wall-clock field zeroed — the
// byte-stable form the service cache stores.
func resultBytes(t *testing.T, r Result) []byte {
	t.Helper()
	r.Duration = 0
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// Equal-seed portfolio runs must be byte-identical at any worker count:
// Workers trades wall-clock only, never the result. Each K is also checked
// against itself across repeated runs, and the winner must verify.
func TestPortfolioEqualSeedIdenticalAcrossWorkers(t *testing.T) {
	ar := arch.NewBaseline4x4()
	for _, alg := range []Algorithm{AlgSA, AlgLISA} {
		for _, k := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/K%d", alg, k), func(t *testing.T) {
				g := dfg.Random(rand.New(rand.NewSource(3)), dfg.DefaultRandomConfig(), "prop")
				var ref []byte
				for _, workers := range []int{1, 4, 8} {
					opts := Options{Seed: 42, MaxMoves: 400, Restarts: k, Workers: workers}
					res := mustMap(t, ar, g, alg, nil, opts)
					if res.OK {
						if err := Verify(ar, g, &res); err != nil {
							t.Fatalf("K=%d workers=%d: invalid winner: %v", k, workers, err)
						}
					}
					b := resultBytes(t, res)
					if ref == nil {
						ref = b
					} else if !bytes.Equal(ref, b) {
						t.Fatalf("K=%d diverged at workers=%d:\n%s\n%s", k, workers, ref, b)
					}
				}
			})
		}
	}
}

// Restarts: 1 (and the zero default) must reproduce the pre-portfolio
// single-chain annealer bit for bit, with no portfolio block on the wire.
func TestPortfolioK1IdenticalToSingleChain(t *testing.T) {
	ar := arch.NewBaseline4x4()
	g := kernels.MustByName("gemm")
	for _, alg := range []Algorithm{AlgSA, AlgLISA} {
		base := mustMap(t, ar, g, alg, nil, Options{Seed: 7, MaxMoves: 600})
		if base.Portfolio != nil {
			t.Fatalf("%s: single-chain result carries portfolio info", alg)
		}
		for _, opts := range []Options{
			{Seed: 7, MaxMoves: 600, Restarts: 1},
			{Seed: 7, MaxMoves: 600, Restarts: 1, Workers: 8},
		} {
			got := mustMap(t, ar, g, alg, nil, opts)
			if !bytes.Equal(resultBytes(t, base), resultBytes(t, got)) {
				t.Fatalf("%s: K=1 output differs from the single-chain annealer", alg)
			}
		}
	}
}

// The portfolio winner can never be worse than the equal-seed single-chain
// run: chain 0 races with the caller's exact seed and budget, so K=4 is
// bounded by K=1 on (II, hops) by construction. This is the acceptance
// criterion behind the BENCH_mapper.json portfolio block.
func TestPortfolioDominatesSingleChainEqualSeed(t *testing.T) {
	ar := arch.NewBaseline4x4()
	g, err := kernels.Unrolled("atax")
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []Algorithm{AlgSA, AlgLISA} {
		for seed := int64(1); seed <= 5; seed++ {
			r1 := mustMap(t, ar, g, alg, nil, Options{Seed: seed, MaxMoves: 300})
			r4 := mustMap(t, ar, g, alg, nil, Options{Seed: seed, MaxMoves: 300, Restarts: 4})
			if r4.Portfolio == nil || r4.Portfolio.Restarts != 4 {
				t.Fatalf("%s seed %d: missing portfolio info: %+v", alg, seed, r4.Portfolio)
			}
			if r1.OK && !r4.OK {
				t.Fatalf("%s seed %d: K=1 mapped (II=%d) but K=4 failed", alg, seed, r1.II)
			}
			if r1.OK && r4.OK {
				if r4.II > r1.II {
					t.Fatalf("%s seed %d: K=4 II=%d worse than K=1 II=%d", alg, seed, r4.II, r1.II)
				}
				if r4.II == r1.II && sum(r4.EdgeHops) > sum(r1.EdgeHops) {
					t.Fatalf("%s seed %d: K=4 hops=%d worse than K=1 hops=%d at II=%d",
						alg, seed, sum(r4.EdgeHops), sum(r1.EdgeHops), r1.II)
				}
			}
		}
	}
}

func sum(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}

// One poisoned chain degrades the race to the surviving chains' winner —
// deterministically, and never a crash — for both error- and panic-mode
// faults. With every chain poisoned the portfolio surfaces the injected
// error (the engine ladder's cue to fall back).
func TestChaosPortfolioChainFaultDegradesToSurvivors(t *testing.T) {
	ar := arch.NewBaseline4x4()
	g := kernels.MustByName("gemm")
	opts := Options{Seed: 5, MaxMoves: 400, Restarts: 4}

	arm := func(spec string) {
		t.Helper()
		plan, err := fault.ParsePlan(spec, 11)
		if err != nil {
			t.Fatal(err)
		}
		if err := fault.Activate(plan); err != nil {
			t.Fatal(err)
		}
	}
	defer fault.Deactivate()

	for _, mode := range []string{"error", "panic"} {
		arm("mapper.portfolio=" + mode + ":0.5")
		res1, err := Map(ar, g, AlgLISA, nil, opts)
		if err != nil {
			t.Fatalf("%s:0.5 poisoned every chain of the race: %v", mode, err)
		}
		if !res1.OK {
			t.Fatalf("%s:0.5: surviving chains found no mapping", mode)
		}
		if fired := fault.Counts()[fault.MapperPortfolio]; fired < 1 || fired > 3 {
			t.Fatalf("%s:0.5 fired %d times, want a strict subset of 4 chains (fault seed needs adjusting)", mode, fired)
		}
		arm("mapper.portfolio=" + mode + ":0.5")
		res2, err := Map(ar, g, AlgLISA, nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(resultBytes(t, res1), resultBytes(t, res2)) {
			t.Fatalf("%s:0.5: degraded race is nondeterministic", mode)
		}

		arm("mapper.portfolio=" + mode + ":1")
		if _, err := Map(ar, g, AlgLISA, nil, opts); err == nil {
			t.Fatalf("%s:1: all chains poisoned but Map returned no error", mode)
		} else if mode == "error" {
			var fe *fault.Error
			if !errors.As(err, &fe) || fe.Site != fault.MapperPortfolio {
				t.Fatalf("all-poisoned error does not unwrap to the fault site: %v", err)
			}
		}
		fault.Deactivate()
	}
}

// K=1 runs chain 0 inline, outside the race's fault site: an armed
// mapper.portfolio never fires on it, and a router fault surfaces with the
// engine's own prefix, not a chain's.
func TestChaosK1SkipsPortfolioFaultSite(t *testing.T) {
	ar := arch.NewBaseline4x4()
	g := kernels.MustByName("gemm")
	opts := Options{Seed: 5, MaxMoves: 400, Restarts: 1}
	want := mustMap(t, ar, g, AlgSA, nil, opts)
	defer fault.Deactivate()
	for _, spec := range []string{"mapper.portfolio=error:1", "router.route=error:1"} {
		plan, err := fault.ParsePlan(spec, 11)
		if err != nil {
			t.Fatal(err)
		}
		if err := fault.Activate(plan); err != nil {
			t.Fatal(err)
		}
		got, err := Map(ar, g, AlgSA, nil, opts)
		if spec == "router.route=error:1" {
			if err == nil || err.Error() != "mapper: sa engine: fault: injected error at router.route" {
				t.Fatalf("%s: error %v", spec, err)
			}
		} else if err != nil || !bytes.Equal(resultBytes(t, want), resultBytes(t, got)) {
			t.Fatalf("%s changed a K=1 run: err %v", spec, err)
		}
		if fired := fault.Counts()[fault.MapperPortfolio]; fired != 0 {
			t.Fatalf("%s: K=1 drew mapper.portfolio %d times", spec, fired)
		}
	}
}

// A race must not leak its chains' goroutines, whether a chain finishes or
// abandons its sweep: parallel.ForEach joins every worker before the
// portfolio returns.
func TestPortfolioEarlyExitLeaksNoGoroutines(t *testing.T) {
	g := dfg.New("chain3")
	a := g.AddNode("a", dfg.OpLoad)
	b := g.AddNode("b", dfg.OpAdd)
	c := g.AddNode("c", dfg.OpStore)
	g.AddEdge(a, b)
	g.AddEdge(b, c)
	ar := arch.NewBaseline4x4()

	before := runtime.NumGoroutine()
	for seed := int64(1); seed <= 20; seed++ {
		res := mustMap(t, ar, g, AlgLISA, nil,
			Options{Seed: seed, MaxMoves: 2000, Restarts: 8, Workers: 8})
		if !res.OK {
			t.Fatalf("seed %d: trivial kernel failed", seed)
		}
	}
	// Workers have all been joined; give the runtime a beat to retire them.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("portfolio leaked goroutines: %d before, %d after", before, after)
	}
}

// The shared TimeLimit must cut every chain promptly — a portfolio with a
// millisecond budget and a huge movement allowance returns in milliseconds,
// not after K full sweeps — and the result must be labeled
// deadline-truncated so no cache tier stores it.
func TestPortfolioSharedDeadlineCutsAllChains(t *testing.T) {
	ar := arch.NewLessRouting4x4()
	g, err := kernels.Unrolled("gemm")
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{
		Seed:      3,
		MaxMoves:  50_000_000,
		Restarts:  4,
		Workers:   4,
		TimeLimit: 30 * time.Millisecond,
	}
	begin := time.Now()
	res := mustMap(t, ar, g, AlgSA, nil, opts)
	elapsed := time.Since(begin)
	if elapsed > 5*time.Second {
		t.Fatalf("deadline did not cancel the chains: portfolio ran %v on a %v budget",
			elapsed, opts.TimeLimit)
	}
	if !res.DeadlineExceeded {
		t.Fatalf("deadline-cut portfolio not labeled: %+v", res)
	}
}
