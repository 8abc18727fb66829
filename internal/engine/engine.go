// Package engine is the single dispatch point from an engine name
// (lisa|sa|sa-rp|sa-m|partial|greedy|ilp) to a mapping run. The lisa-map
// CLI and the lisa-serve daemon both resolve requests through this package,
// so the set of engines and the way each one is invoked cannot drift
// between the two front ends.
//
// Run adds the graceful-degradation ladder on top of the raw Map dispatch,
// mirroring how production placement stacks pair a learned path with a
// deterministic fallback: a label-using engine that cannot obtain GNN
// labels falls back to plain SA, an engine invocation that errors or
// panics falls back to SA and then to greedy list scheduling, and an SA
// sweep that exhausts its deadline with no valid mapping is replaced by
// the greedy mapper. Every fallback taken is recorded on
// mapper.Result.Degraded, so callers (and the /v1/map response) can tell a
// first-choice result from a degraded one.
package engine

import (
	"fmt"

	"github.com/lisa-go/lisa/internal/arch"
	"github.com/lisa-go/lisa/internal/dfg"
	"github.com/lisa-go/lisa/internal/ilp"
	"github.com/lisa-go/lisa/internal/labels"
	"github.com/lisa-go/lisa/internal/mapper"
)

// Name identifies a mapping engine.
type Name string

// The seven engines exposed by the CLIs and the service.
const (
	LISA    Name = "lisa"    // full label-aware SA (Algorithm 1)
	SA      Name = "sa"      // vanilla simulated annealing
	SARP    Name = "sa-rp"   // SA + GNN routing priority (Fig. 12 ablation)
	SAM     Name = "sa-m"    // SA with 10x movements (Fig. 13 ablation)
	Partial Name = "partial" // labels seed the initial mapping only
	Greedy  Name = "greedy"  // deterministic list scheduling
	ILP     Name = "ilp"     // exact branch-and-bound mapper
)

// Names lists every engine in presentation order.
func Names() []string {
	return []string{"lisa", "sa", "sa-rp", "sa-m", "partial", "greedy", "ilp"}
}

// Parse validates an engine name from a flag or request field.
func Parse(s string) (Name, error) {
	for _, n := range Names() {
		if s == n {
			return Name(s), nil
		}
	}
	return "", fmt.Errorf("engine: unknown engine %q (have %v)", s, Names())
}

// UsesLabels reports whether the engine consumes GNN-predicted labels.
// Label-using engines fall back to the §V-B initialization when mapped
// without a model.
func (n Name) UsesLabels() bool {
	switch n {
	case LISA, SARP, Partial:
		return true
	}
	return false
}

// Options carries the budgets for both engine families; only the half
// matching the selected engine is consulted, except Map.TimeLimit, the
// run's deadline, which also bounds the ILP sweep as a whole.
type Options struct {
	Map mapper.Options // SA-family and greedy budgets
	ILP ilp.Options    // exact-mapper limits
}

// Map runs the named engine for g on ar — the raw dispatch, no fallback.
// lbl supplies GNN labels for the label-using engines and may be nil (§V-B
// fallback); it is ignored by the others. Errors are an unknown engine name
// and injected faults (internal/fault); a mapping that fails to converge is
// a Result with OK=false, not an error.
func Map(ar arch.Arch, g *dfg.Graph, eng Name, lbl *labels.Labels, opts Options) (mapper.Result, error) {
	switch eng {
	case ILP:
		return ilp.Map(ar, g, opts.ILP, opts.Map.TimeLimit), nil
	case Greedy:
		return mapper.MapGreedy(ar, g, opts.Map), nil
	case LISA, SA, SARP, SAM, Partial:
		return mapper.Map(ar, g, mapper.Algorithm(eng), lbl, opts.Map)
	default:
		return mapper.Result{}, fmt.Errorf("engine: unknown engine %q (have %v)", eng, Names())
	}
}

// LabelSource supplies GNN-predicted labels for the label-using engines.
// registry.Registry implements it (model lookup or lazy training per
// architecture); StaticLabels adapts a single pre-computed prediction.
type LabelSource interface {
	LabelsFor(ar arch.Arch, g *dfg.Graph) (*labels.Labels, error)
}

// StaticLabels is a LabelSource returning fixed labels (nil is valid and
// selects the §V-B initialization inside the mapper).
type StaticLabels struct{ L *labels.Labels }

// LabelsFor returns the fixed labels.
func (s StaticLabels) LabelsFor(arch.Arch, *dfg.Graph) (*labels.Labels, error) { return s.L, nil }

// Request is one engine invocation for Run.
type Request struct {
	Engine Name
	// Labels resolves GNN labels for the label-using engines; nil runs them
	// with the §V-B initialization (no label rung in the ladder).
	Labels LabelSource
	Opts   Options
	// NoFallback disables the degradation ladder: the named engine runs
	// exactly once and its error, if any, is returned unchanged.
	NoFallback bool
}

// RunResult is a Run outcome: the mapping plus the engine that actually
// produced it (== the requested engine unless the ladder degraded).
type RunResult struct {
	mapper.Result
	Engine Name
}

// DegradedRun reports whether any fallback rung was taken.
func (r *RunResult) DegradedRun() bool { return len(r.Result.Degraded) > 0 }

// Run executes the request behind the graceful-degradation ladder:
//
//  1. label-using engine, labels unavailable  → plain sa (§V-B has no model)
//  2. engine invocation errors or panics      → plain sa
//  3. sa errors or panics                     → greedy
//  4. deadline exhausted, no valid mapping    → greedy
//
// Each rung taken appends one "from→to: reason" step to Result.Degraded.
// ILP and greedy have no ladder below them (greedy IS the deterministic
// floor; ILP is explicitly exact-or-nothing): their errors return as-is,
// as does every error under NoFallback. A nil error therefore means the
// returned result — possibly degraded, possibly OK=false — is the best the
// ladder could do, and the daemon never has to crash for an engine fault.
func Run(ar arch.Arch, g *dfg.Graph, req Request) (RunResult, error) {
	eng := req.Engine
	if _, err := Parse(string(eng)); err != nil {
		return RunResult{}, err
	}
	var chain []string
	var lbl *labels.Labels
	if eng.UsesLabels() && req.Labels != nil {
		l, err := req.Labels.LabelsFor(ar, g)
		switch {
		case err == nil:
			lbl = l
		case req.NoFallback:
			return RunResult{}, fmt.Errorf("engine: %s labels: %w", eng, err)
		default:
			chain = append(chain, fmt.Sprintf("%s→sa: labels unavailable: %v", eng, err))
			eng, lbl = SA, nil
		}
	}
	res, err := safeMap(ar, g, eng, lbl, req.Opts)
	if err != nil && !req.NoFallback && eng != Greedy && eng != ILP {
		if eng != SA {
			chain = append(chain, fmt.Sprintf("%s→sa: %v", eng, err))
			eng, lbl = SA, nil
			res, err = safeMap(ar, g, eng, lbl, req.Opts)
		}
		if err != nil {
			chain = append(chain, fmt.Sprintf("%s→greedy: %v", eng, err))
			eng = Greedy
			res, err = safeMap(ar, g, eng, nil, req.Opts)
		}
	}
	if err != nil {
		return RunResult{}, err
	}
	if !res.OK && res.DeadlineExceeded && eng != Greedy && eng != ILP && !req.NoFallback {
		chain = append(chain, fmt.Sprintf("%s→greedy: deadline exceeded with no valid mapping", eng))
		eng = Greedy
		gres, gerr := safeMap(ar, g, eng, nil, req.Opts)
		if gerr != nil {
			return RunResult{}, gerr
		}
		res = gres
	}
	res.Degraded = chain
	return RunResult{Result: res, Engine: eng}, nil
}

// safeMap is Map behind a panic fence: a panicking engine (an injected
// fault or an organic bug) becomes an error the ladder can degrade on,
// instead of a crashed worker.
func safeMap(ar arch.Arch, g *dfg.Graph, eng Name, lbl *labels.Labels, opts Options) (res mapper.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("engine: %s panicked: %v", eng, r)
		}
	}()
	return Map(ar, g, eng, lbl, opts)
}
