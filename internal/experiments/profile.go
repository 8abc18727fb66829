// Package experiments regenerates the paper's evaluation: one runner per
// table and figure (Fig. 9a–g mapping quality, Fig. 10 power efficiency,
// Fig. 11 compilation time, Table II GNN accuracy, Fig. 12 routing-priority
// ablation, Fig. 13 SA-M ablation), each emitting the same rows/series the
// paper reports.
//
// Budgets are grouped into profiles: Quick keeps the full pipeline inside a
// test/benchmark run, Paper scales the knobs to the paper's settings (1000
// training DFGs, 500 epochs, hours of ILP time). Shapes — who maps what,
// who wins, by roughly what factor — are stable across the two profiles.
package experiments

import (
	"sort"
	"time"

	"github.com/lisa-go/lisa/internal/arch"
	"github.com/lisa-go/lisa/internal/attr"
	"github.com/lisa-go/lisa/internal/dfg"
	"github.com/lisa-go/lisa/internal/gnn"
	"github.com/lisa-go/lisa/internal/ilp"
	"github.com/lisa-go/lisa/internal/labels"
	"github.com/lisa-go/lisa/internal/mapper"
	"github.com/lisa-go/lisa/internal/parallel"
	"github.com/lisa-go/lisa/internal/registry"
	"github.com/lisa-go/lisa/internal/traingen"
)

// Profile groups every experiment budget knob.
type Profile struct {
	Name string

	MapOpts  mapper.Options  // SA/LISA movement budgets
	ILPOpts  ilp.Options     // exact-mapper limits
	TrainGen traingen.Config // dataset generation
	TrainCfg gnn.TrainConfig // GNN training
	SARuns   int             // SA median-of-N runs (paper: 3)
	Seed     int64

	// Workers fans the experiment grid (kernel × method cells), the SA
	// median runs and dataset generation out over this many goroutines:
	// <= 0 means one per CPU (runtime.GOMAXPROCS), 1 is the exact serial
	// path. Every cell and every training DFG is seeded independently of
	// scheduling, so results are identical at any worker count.
	Workers int
}

// Quick returns the profile used by tests and `go test -bench`. A full
// figure regenerates in seconds to a few minutes.
func Quick() Profile {
	return Profile{
		Name:    "quick",
		MapOpts: mapper.Options{MaxMoves: 1600},
		ILPOpts: ilp.Options{
			TimeLimitPerII: 1500 * time.Millisecond,
			MaxNodes:       150000,
			MaxCutRounds:   12,
			MaxVars:        9000,
			MaxII:          8,
		},
		TrainGen: traingen.Config{
			NumDFGs:    36,
			Iterations: 2,
			DFG:        dfg.DefaultRandomConfig(),
			MapOpts:    mapper.Options{MaxMoves: 700},
			Filter:     labels.DefaultFilterConfig(),
		},
		TrainCfg: gnn.TrainConfig{Epochs: 60, LR: 0.003, WeightDecay: 0.0005},
		SARuns:   3,
		Seed:     1,
	}
}

// Paper returns the paper-scale profile (§VI): 1000 random DFGs per
// accelerator, 500 training epochs at lr 0.001 / weight decay 0.0005,
// SA median of three runs, and a generous ILP time limit per target II.
func Paper() Profile {
	return Profile{
		Name:    "paper",
		MapOpts: mapper.Options{MaxMoves: 20000},
		ILPOpts: ilp.Options{
			TimeLimitPerII: 2 * time.Hour,
			MaxCutRounds:   200,
			MaxVars:        200000,
		},
		TrainGen: traingen.Config{
			NumDFGs:    1000,
			Iterations: 4,
			DFG:        dfg.DefaultRandomConfig(),
			MapOpts:    mapper.Options{MaxMoves: 4000},
			Filter:     labels.DefaultFilterConfig(),
		},
		TrainCfg: gnn.DefaultTrainConfig(),
		SARuns:   3,
		Seed:     1,
	}
}

// Context caches trained GNN models per architecture so that all figures
// share one training run per target, as the paper does. It is a thin
// wrapper over the shared registry.Registry (also used by lisa-serve): grid
// cells that need the same accelerator block on a per-architecture once and
// see exactly one training run.
type Context struct {
	Profile Profile

	reg *registry.Registry
}

// NewContext creates a fresh experiment context.
func NewContext(p Profile) *Context {
	return &Context{
		Profile: p,
		reg: registry.New(registry.Config{
			TrainGen:      p.TrainGen,
			TrainCfg:      p.TrainCfg,
			Seed:          p.Seed,
			Workers:       p.Workers,
			TrainOnDemand: true,
		}),
	}
}

// ModelFor returns the trained GNN model for ar, training it on first use
// (training-data generation + four-network training, §V and §IV). Safe to
// call from concurrent grid cells; the model for each architecture is
// trained exactly once.
func (c *Context) ModelFor(ar arch.Arch) *gnn.Model {
	m, err := c.reg.ModelFor(ar)
	if err != nil {
		// The context always permits on-demand training, so an error here
		// means the registry contract itself is broken — fail loudly.
		panic("experiments: " + err.Error())
	}
	return m
}

// Method names a mapping approach in experiment output.
type Method string

// The three methods of Figs. 9-11 plus the two ablation engines.
const (
	MethodILP  Method = "ILP"
	MethodSA   Method = "SA"
	MethodSARP Method = "SA-RP"
	MethodSAM  Method = "SA-M"
	MethodLISA Method = "LISA"
	// MethodGreedy is the deterministic list-scheduling baseline (not part
	// of the paper's figures; used by the portability sweep).
	MethodGreedy Method = "Greedy"
)

// Run maps g on ar with one method under the context's profile. SA-family
// methods run SARuns times and report the median, following the paper
// ("we run SA three times ... and use the median performance").
func (c *Context) Run(ar arch.Arch, g *dfg.Graph, m Method) mapper.Result {
	switch m {
	case MethodILP:
		return ilp.Map(ar, g, c.Profile.ILPOpts, 0)
	case MethodGreedy:
		return mapper.MapGreedy(ar, g, c.Profile.MapOpts)
	case MethodLISA:
		lbl := c.predictLabels(ar, g)
		opts := c.Profile.MapOpts
		opts.Seed = c.Profile.Seed
		res, err := mapper.Map(ar, g, mapper.AlgLISA, lbl, opts)
		if err != nil {
			// The grid never runs with faults armed, so an error here is a
			// failed cell, not a crashed experiment.
			return mapper.Result{}
		}
		return res
	case MethodSA, MethodSAM, MethodSARP:
		alg := map[Method]mapper.Algorithm{
			MethodSA: mapper.AlgSA, MethodSAM: mapper.AlgSAM, MethodSARP: mapper.AlgSARP,
		}[m]
		var lbl *labels.Labels
		if m == MethodSARP {
			// The Fig. 12 ablation adds only the GNN routing priority to SA.
			lbl = c.predictLabels(ar, g)
		}
		return c.medianRun(ar, g, alg, lbl)
	default:
		panic("experiments: unknown method " + string(m))
	}
}

// predictLabels runs the fused GNN inference for one grid cell. Grid-cell
// models fit their own scales, so a skew error is a broken registry
// contract — fail loudly like ModelFor does.
func (c *Context) predictLabels(ar arch.Arch, g *dfg.Graph) *labels.Labels {
	lbl, err := c.ModelFor(ar).Predict(attr.Generate(g))
	if err != nil {
		panic("experiments: " + err.Error())
	}
	return lbl
}

// medianRun executes SARuns independently seeded runs — in parallel, as
// the paper's artifact does on its multi-core server — and returns the
// median-quality result. Failures sort worst; quality ties break on the
// run's slot index, which fixes its seed. Because every run is a pure
// function of its seed and the ordering never consults wall-clock
// measurements, the selected median — including its Routes, Moves and
// TriedIIs — is identical across repeated invocations, worker counts and
// schedulers.
func (c *Context) medianRun(ar arch.Arch, g *dfg.Graph, alg mapper.Algorithm, lbl *labels.Labels) mapper.Result {
	n := c.Profile.SARuns
	if n < 1 {
		n = 1
	}
	results := make([]mapper.Result, n)
	parallel.ForEach(c.Profile.Workers, n, func(i int) {
		opts := c.Profile.MapOpts
		opts.Seed = c.Profile.Seed + int64(i)*7919
		res, err := mapper.Map(ar, g, alg, lbl, opts)
		if err != nil {
			res = mapper.Result{} // injected fault ⇒ failed run; sorts worst
		}
		results[i] = res
	})
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		i, j := order[a], order[b]
		qi, qj := quality(&results[i]), quality(&results[j])
		if qi != qj {
			return qi < qj
		}
		return i < j
	})
	return results[order[n/2]]
}

// quality orders results: lower is better, failures are worst.
func quality(r *mapper.Result) int {
	if !r.OK {
		return 1 << 20
	}
	return r.II
}
