// Command lisa-map maps one kernel onto one accelerator with a chosen
// mapping engine and prints the resulting schedule.
//
// Usage:
//
//	lisa-map -kernel gemm -arch cgra-4x4 -alg lisa [-model model.json]
//	lisa-map -kernel syr2k -arch cgra-4x4-lessroute -alg sa -seed 3
//	lisa-map -kernel doitgen -arch systolic-5x5 -alg ilp
//
// Algorithms: lisa (label-aware SA, default), sa, sa-rp, sa-m, partial,
// greedy, ilp. The CLI exits nonzero when no legal mapping is found.
// Without -model, the label-using engines fall back to the §V-B label
// initialization; pass a model trained by lisa-train for GNN-derived labels.
//
// Requests run through the same degradation ladder as lisa-serve: an
// engine that errors or panics, or an SA sweep that exhausts its deadline
// without a valid mapping, is replaced by the next rung down (sa, then
// greedy) and each substitution is printed. -no-fallback runs the named
// engine exactly once and exits nonzero on any failure.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"time"

	lisa "github.com/lisa-go/lisa"
	"github.com/lisa-go/lisa/internal/arch"
	"github.com/lisa-go/lisa/internal/attr"
	"github.com/lisa-go/lisa/internal/engine"
	"github.com/lisa-go/lisa/internal/fault"
	"github.com/lisa-go/lisa/internal/gnn"
	"github.com/lisa-go/lisa/internal/ilp"
	"github.com/lisa-go/lisa/internal/kernels"
	"github.com/lisa-go/lisa/internal/labels"
	"github.com/lisa-go/lisa/internal/mapper"
	"github.com/lisa-go/lisa/internal/sim"
	"github.com/lisa-go/lisa/internal/visual"

	"github.com/lisa-go/lisa/internal/dfg"
)

func main() {
	kernel := flag.String("kernel", "gemm", "kernel name (see lisa-dfg list)")
	dfgFile := flag.String("dfg", "", "load the DFG from a .dot or .json file instead of -kernel")
	archName := flag.String("arch", "cgra-4x4", "target: "+strings.Join(arch.Names(), ", "))
	archFile := flag.String("arch-file", "", "load the target from a JSON architecture spec instead of -arch")
	alg := flag.String("alg", "lisa", "mapping engine: lisa|sa|sa-rp|sa-m|partial|greedy|ilp")
	unroll := flag.Int("unroll", 1, "unrolling factor")
	seed := flag.Int64("seed", 1, "annealer seed")
	moves := flag.Int("moves", 2400, "SA movement budget per II")
	restarts := flag.Int("restarts", 1, "portfolio width: race K diverse annealing chains per II (1 = plain annealer)")
	workers := flag.Int("workers", 0, "concurrent portfolio chains (<=0: one per CPU; never changes the result)")
	modelPath := flag.String("model", "", "trained GNN model (from lisa-train)")
	ilpTime := flag.Duration("ilp-time", 5*time.Second, "ILP time limit per II")
	stats := flag.Bool("stats", false, "print utilization and the schedule table")
	simulate := flag.Int("simulate", 0, "cycle-accurate simulation for N iterations")
	svgOut := flag.String("svg", "", "write the mapping drawing (Fig. 5 style) to this SVG file")
	noFallback := flag.Bool("no-fallback", false, "fail instead of degrading to sa/greedy when the engine cannot run")
	flag.Parse()

	// LISA_FAULTS arms the deterministic fault layer (chaos testing), the
	// same contract as lisa-serve.
	if plan, err := fault.FromEnv(); err != nil {
		fatal(err)
	} else if plan != nil {
		if err := fault.Activate(plan); err != nil {
			fatal(err)
		}
		fmt.Fprintln(os.Stderr, "lisa-map: FAULT INJECTION ARMED:", plan)
	}

	var ar arch.Arch
	if *archFile != "" {
		f, err := os.Open(*archFile)
		if err != nil {
			fatal(err)
		}
		ar, err = arch.LoadArch(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
	} else {
		var ok bool
		ar, ok = arch.ByName(*archName)
		if !ok {
			fatal(fmt.Errorf("unknown arch %q (have %v)", *archName, arch.Names()))
		}
	}
	var g *dfg.Graph
	if *dfgFile != "" {
		f, err := os.Open(*dfgFile)
		if err != nil {
			fatal(err)
		}
		if strings.HasSuffix(*dfgFile, ".json") {
			g, err = dfg.ReadJSON(f)
		} else {
			g, err = dfg.ParseDOT(f)
		}
		f.Close()
		if err != nil {
			fatal(err)
		}
	} else {
		var err error
		g, err = kernels.ByName(*kernel)
		if err != nil {
			fatal(err)
		}
	}
	if *unroll > 1 {
		g = dfg.Unroll(g, *unroll)
	}

	// Engine dispatch is shared with lisa-serve (internal/engine), so the
	// CLI and the service resolve a request identically.
	eng, err := engine.Parse(*alg)
	if err != nil {
		fatal(err)
	}
	var lbl *labels.Labels
	if *modelPath != "" && eng != engine.ILP && eng != engine.Greedy {
		f, err := os.Open(*modelPath)
		if err != nil {
			fatal(err)
		}
		model, err := gnn.Load(f, gnn.NewModel(rand.New(rand.NewSource(1)), ar.Name()))
		f.Close()
		if err != nil {
			fatal(err)
		}
		if model.ArchName != ar.Name() {
			fmt.Fprintf(os.Stderr, "warning: model trained for %s, mapping on %s\n",
				model.ArchName, ar.Name())
		}
		lbl, err = model.Predict(attr.Generate(g))
		if err != nil {
			fatal(err)
		}
	}
	rr, err := engine.Run(ar, g, engine.Request{
		Engine: eng,
		Labels: engine.StaticLabels{L: lbl},
		Opts: engine.Options{
			Map: mapper.Options{Seed: *seed, MaxMoves: *moves, Restarts: *restarts, Workers: *workers},
			ILP: ilp.Options{TimeLimitPerII: *ilpTime},
		},
		NoFallback: *noFallback,
	})
	if err != nil {
		fatal(err)
	}
	res := rr.Result
	for _, step := range res.Degraded {
		fmt.Fprintln(os.Stderr, "lisa-map: degraded:", step)
	}
	if rr.Engine != eng {
		fmt.Fprintf(os.Stderr, "lisa-map: result produced by the %s engine, not %s\n", rr.Engine, eng)
	}

	fmt.Print(lisa.Describe(ar, g, &res))
	if !res.OK {
		os.Exit(1)
	}
	if err := mapper.Verify(ar, g, &res); err != nil {
		fatal(fmt.Errorf("mapping failed verification: %w", err))
	}
	fmt.Printf("verified: legal mapping (moves=%d)\n", res.Moves)
	if *stats {
		u, err := mapper.Utilize(ar, g, &res)
		if err != nil {
			fatal(err)
		}
		fmt.Println(u)
		fmt.Println(mapper.ScheduleTable(ar, g, &res))
	}
	if *svgOut != "" {
		f, err := os.Create(*svgOut)
		if err != nil {
			fatal(err)
		}
		err = visual.WriteMapping(f, ar, g, &res)
		f.Close()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("mapping drawing written to %s\n", *svgOut)
	}
	if *simulate > 0 {
		tr, err := sim.Run(ar, g, &res, *simulate)
		if err != nil {
			fatal(fmt.Errorf("simulation: %w", err))
		}
		fmt.Printf("simulated %d iterations in %d cycles; %d store events match the DFG\n",
			tr.Iterations, tr.TotalCycles, len(tr.Stores))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lisa-map:", err)
	os.Exit(1)
}
