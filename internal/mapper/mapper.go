// Package mapper implements the mapping engines of the paper's evaluation:
// the vanilla simulated-annealing baseline (SA), SA with label-4 routing
// priority only (the Fig. 12 ablation), SA-M with 10× movements per
// temperature (the Fig. 13 ablation), the full label-aware simulated
// annealing of Algorithm 1 (LISA), and the partial label-aware mode used
// during training-data generation (§V-B: labels seed only the initial
// mapping).
//
// All engines share one spatio-temporal mapping state over the architecture's
// modulo routing resource graph: every DFG node gets a (PE, absolute cycle)
// slot, every DFG edge gets an exact-length route, and the annealer repeats
// unmap/re-place/re-route movements until the mapping is valid or the budget
// runs out. The II sweep starts at the resource-minimal II and increments on
// failure, exactly as §VI describes.
package mapper

import (
	"fmt"
	"time"

	"github.com/lisa-go/lisa/internal/arch"
	"github.com/lisa-go/lisa/internal/dfg"
	"github.com/lisa-go/lisa/internal/fault"
	"github.com/lisa-go/lisa/internal/labels"
)

// Algorithm selects a mapping engine.
type Algorithm string

// The engines evaluated in the paper.
const (
	AlgSA   Algorithm = "sa"      // vanilla simulated annealing
	AlgSARP Algorithm = "sa-rp"   // SA + routing priority (label 4 only)
	AlgSAM  Algorithm = "sa-m"    // SA with 10x movements per temperature
	AlgLISA Algorithm = "lisa"    // full label-aware SA (Algorithm 1)
	AlgPart Algorithm = "partial" // labels seed the initial mapping only
)

// Options tunes the annealer. Zero values fall back to DefaultOptions.
type Options struct {
	Seed         int64
	MaxMoves     int     // movement budget per II attempt
	MovesPerTemp int     // paper keeps 50 movements per temperature
	InitTemp     float64 // initial annealing temperature
	Cool         float64 // geometric cooling factor
	Alpha        float64 // α in σ = max{1, α·T − Acc} (Algorithm 1 line 7)
	MaxII        int     // override of the architecture's max II (0 = arch)
	TimeLimit    time.Duration

	// Restarts is the portfolio width K: the number of diverse annealing
	// chains raced per II attempt (see portfolio.go). 0 and 1 both mean the
	// plain single-chain annealer; K > 1 races chain 0 (identical to the
	// single-chain run) against K−1 variants with splitmix64-derived seeds.
	// Restarts changes the result, so it is part of Normalized() and of the
	// service cache key. Clamped to MaxRestarts.
	Restarts int
	// Workers bounds how many portfolio chains run concurrently (<= 0: one
	// per CPU). It trades wall-clock only — equal-seed output is
	// byte-identical at any worker count — so it is NOT part of the cache
	// key.
	Workers int
}

// MaxRestarts bounds the portfolio width a single Map call will run;
// withDefaults clamps Restarts to it. The serving daemon applies its own
// (configurable, lower) admission cap before this one.
const MaxRestarts = 64

// DefaultOptions returns the budget profile used by tests and quick
// experiments. The Paper profile in internal/experiments scales MaxMoves up.
func DefaultOptions() Options {
	return Options{
		MaxMoves:     2400,
		MovesPerTemp: 50,
		InitTemp:     40,
		Cool:         0.92,
		Alpha:        0.15,
		Restarts:     1,
	}
}

func (o Options) withDefaults() Options {
	d := DefaultOptions()
	if o.MaxMoves == 0 {
		o.MaxMoves = d.MaxMoves
	}
	if o.MovesPerTemp == 0 {
		o.MovesPerTemp = d.MovesPerTemp
	}
	if o.InitTemp == 0 {
		o.InitTemp = d.InitTemp
	}
	if o.Cool == 0 {
		o.Cool = d.Cool
	}
	if o.Alpha == 0 {
		o.Alpha = d.Alpha
	}
	if o.Restarts < 1 {
		o.Restarts = 1
	}
	if o.Restarts > MaxRestarts {
		o.Restarts = MaxRestarts
	}
	return o
}

// Result reports one mapping run.
type Result struct {
	OK bool
	// II is the achieved initiation interval when OK; for a failed run it
	// is 0, matching the paper's "II is zero implies the benchmark cannot
	// be mapped" convention.
	II          int
	PE          []int   // per-node PE (valid when OK)
	Time        []int   // per-node absolute cycle (valid when OK)
	EdgeHops    []int   // per-edge route length (valid when OK)
	Routes      [][]int // per-edge resource-graph path incl. endpoints (valid when OK)
	RoutingCost int     // routing resources consumed (valid when OK)
	Moves       int     // total SA movements across the II sweep
	Duration    time.Duration
	TriedIIs    []int // the II values attempted, in order

	// DeadlineExceeded reports that Options.TimeLimit expired before the run
	// finished: the II sweep was cut short (or its last attempt truncated).
	// Single-chain runs can only set it on failure (always false when OK);
	// a portfolio run also sets it on an OK result when the deadline aborted
	// any chain, because the race was not run to completion and the winner
	// is best-completed-so-far rather than the deterministic fixed point.
	// Deadline-truncated results are never cached by the service.
	DeadlineExceeded bool
	// Portfolio describes the restart race that produced this result; nil
	// for single-chain runs (Restarts <= 1), keeping their wire bytes
	// identical to the pre-portfolio format.
	Portfolio *PortfolioInfo
	// Degraded names the fallback chain that produced this result (e.g.
	// "lisa→sa: labels unavailable"). It is written by the engine-level
	// degradation ladder (internal/engine); direct mapper runs leave it
	// empty. A non-empty chain marks the result as degraded: correct and
	// verified, but not what the requested engine would have produced.
	Degraded []string
}

// Stats converts a successful Result into the architecture-agnostic view the
// label extractor consumes.
func (r *Result) Stats(ar arch.Arch) *labels.MappingStats {
	if !r.OK {
		return nil
	}
	return &labels.MappingStats{
		II:          r.II,
		NodePE:      r.PE,
		NodeTime:    r.Time,
		EdgeHops:    r.EdgeHops,
		RoutingCost: r.RoutingCost,
		SpatialDist: ar.SpatialDistance,
	}
}

// Map runs the selected algorithm for g on ar. lbl supplies the labels for
// AlgSARP, AlgLISA and AlgPart; it may be nil for AlgSA/AlgSAM (and defaults
// to the §V-B initialization for the label-using engines when nil). It
// returns an error for an unknown algorithm and for injected faults
// (internal/fault); a mapping that merely fails to converge is not an
// error — it is a Result with OK=false.
func Map(ar arch.Arch, g *dfg.Graph, alg Algorithm, lbl *labels.Labels, opts Options) (Result, error) {
	opts = opts.withDefaults()
	an := dfg.Analyze(g)
	labelGuided := lbl != nil // caller-supplied GNN labels, not the §V-B fallback
	if lbl == nil {
		lbl = labels.Initial(an)
	}
	cfg, err := engineConfig(alg, &opts)
	if err != nil {
		return Result{}, err
	}

	start := time.Now()
	// Fault site mapper.anneal, streamed by the annealer seed: error mode
	// aborts the engine (the degradation ladder's cue), latency mode burns
	// the request's time budget before the sweep starts.
	if err := fault.Inject(fault.MapperAnneal, uint64(opts.Seed)); err != nil {
		return Result{}, fmt.Errorf("mapper: %s engine: %w", alg, err)
	}
	p := newPortfolio(ar, g, an, alg, lbl, labelGuided, cfg, opts, start)
	if opts.Restarts > 1 {
		return p.race()
	}
	// K=1 is chain 0 of the portfolio run inline: no goroutine, no
	// mapper.portfolio fault draw and no panic fence, so a single-chain
	// run fails exactly as the annealer itself does.
	out := p.sweep(0)
	res := out.res
	res.Duration = time.Since(start)
	if out.err != nil {
		return res, fmt.Errorf("mapper: %s engine: %w", alg, out.err)
	}
	// The budget, not the search space, ended the sweep: the engine ladder
	// uses this to substitute a deterministic greedy fallback.
	res.DeadlineExceeded = out.deadline
	return res, nil
}

// maxII is the highest II the sweep tries: the architecture's, or the
// caller's lower override.
func (o Options) maxII(ar arch.Arch) int {
	m := ar.MaxII()
	if o.MaxII > 0 && o.MaxII < m {
		m = o.MaxII
	}
	return m
}

// config captures which parts of Algorithm 1 an engine uses.
type config struct {
	useOrderLabel      bool // label 1 decides placement order
	usePlacementLabels bool // labels 2/3/4 in the PE-candidate cost
	useRoutingPriority bool // label 4 decides routing order
	partial            bool // labels only seed the initial mapping
}

func engineConfig(alg Algorithm, opts *Options) (config, error) {
	switch alg {
	case AlgSA:
		return config{}, nil
	case AlgSAM:
		opts.MovesPerTemp *= 10
		opts.MaxMoves *= 10
		return config{}, nil
	case AlgSARP:
		return config{useRoutingPriority: true}, nil
	case AlgPart:
		return config{
			useOrderLabel: true, usePlacementLabels: true,
			useRoutingPriority: true, partial: true,
		}, nil
	case AlgLISA:
		return config{
			useOrderLabel: true, usePlacementLabels: true,
			useRoutingPriority: true,
		}, nil
	default:
		return config{}, fmt.Errorf("mapper: unknown algorithm %q", alg)
	}
}
