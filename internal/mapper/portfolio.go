// Portfolio annealing: race K diverse restart chains of the incremental SA
// core and return the best mapping, deterministically.
//
// PR 5 made one chain ~6× faster; this layer spends that win on restart
// diversity instead of a single longer trajectory. Each chain c gets
//
//   - a distinct seed: chain 0 keeps Options.Seed verbatim (it IS the
//     single-chain run, so every portfolio dominates K=1 by construction),
//     chains c >= 1 use parallel.DeriveSeed(Seed, c);
//   - a distinct initial placement family (variant): the engine's own
//     label-guided policy, a greedy list-scheduling seed (the MapGreedy
//     pass), or uniform-random placement;
//   - a move budget: with caller-supplied GNN labels the budget tilts
//     toward label-guided chains in proportion to labelConfidence — the
//     "learned cost model steers search budget" direction of the SambaNova
//     placement work applied to LISA's own labels.
//
// Every chain runs the same II sweep (sweep), and K=1 is chain 0 run
// inline. Chains cooperate through one atomic (portShared): a best-so-far
// II bound that lets dominated chains abandon early.
//
// Determinism argument (the DESIGN.md "Portfolio annealing" section carries
// the full version): a chain that completes an II attempt was never steered
// by shared state — abandonment ends an attempt with failure, it never
// alters placements or the RNG stream — so every completed result equals the
// result of running that chain alone. A chain abandons only when another
// chain has finished a mapping at a strictly lower II, which dominates
// everything the abandoned attempt could still produce. The winner —
// minimum over chains of the key (OK desc, II asc, hops asc, chain index
// asc) — is therefore the same regardless of goroutine scheduling or worker
// count: the true winner can never be the chain that got abandoned.
package mapper

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"time"

	"github.com/lisa-go/lisa/internal/arch"
	"github.com/lisa-go/lisa/internal/dfg"
	"github.com/lisa-go/lisa/internal/fault"
	"github.com/lisa-go/lisa/internal/labels"
	"github.com/lisa-go/lisa/internal/parallel"
)

// Chain initial-placement families. Chain 0 is always seedEngine; chains
// c >= 1 cycle greedy → random → engine so every family appears by K=4.
const (
	seedEngine uint8 = iota // the engine's own initial policy (placeAll)
	seedGreedy              // greedy list-scheduling seed (greedyPass), then anneal
	seedRandom              // uniform-random initial placement (labels off for the seed)
)

func variantName(v uint8) string {
	switch v {
	case seedGreedy:
		return "greedy"
	case seedRandom:
		return "random"
	default:
		return "engine"
	}
}

// PortfolioInfo describes the restart race behind a Result. Every field is
// a pure function of (inputs, options, seed) — worker count and goroutine
// scheduling never show through — so it is safe to serialize and cache.
type PortfolioInfo struct {
	Restarts int    `json:"restarts"` // portfolio width K actually raced
	Winner   int    `json:"winner"`   // index of the winning chain
	Variant  string `json:"variant"`  // winning chain's initial-placement family
	Budgets  []int  `json:"budgets"`  // per-chain movement budget allocation
}

// portShared is the cross-chain cooperation state: the lowest II any chain
// has completed a valid mapping at. Chains only ever shrink it, and a chain
// consults it only to stop — never to steer a still-running attempt — which
// is what keeps every completed chain result scheduling-independent.
type portShared struct {
	bestII atomic.Int64
}

// abandoned reports whether an attempt at ii can no longer win the race:
// some chain has already mapped at a strictly lower II. Polled from the
// annealing movement loop, so it must stay one plain atomic load.
//
//lisa:hotpath polled every 64 movements by every annealing chain; must stay allocation-free
func (sh *portShared) abandoned(ii int) bool {
	return int64(ii) > sh.bestII.Load()
}

// publish records a chain's completed mapping at ii: a CAS-min on the II
// bound.
func (sh *portShared) publish(ii int) {
	for {
		cur := sh.bestII.Load()
		if int64(ii) >= cur || sh.bestII.CompareAndSwap(cur, int64(ii)) {
			return
		}
	}
}

// chainResult is one chain's contribution to winner selection.
type chainResult struct {
	res      Result
	hops     int  // total routed hops when res.OK
	deadline bool // the shared TimeLimit cut this chain short
	err      error
}

// portfolio is one race: the shared inputs plus the per-chain plan.
type portfolio struct {
	ar    arch.Arch
	g     *dfg.Graph
	an    *dfg.Analysis
	alg   Algorithm
	lbl   *labels.Labels
	cfg   config
	opts  Options
	start time.Time

	minII, maxII int
	variants     []uint8
	budgets      []int
	shared       *portShared
}

// newPortfolio plans a race of opts.Restarts chains. Called from Map with
// normalized options, after engineConfig has applied per-engine budget
// scaling (so SA-M chains race 10× budgets, same as its single chain) and
// after the mapper.anneal fault site has passed.
func newPortfolio(ar arch.Arch, g *dfg.Graph, an *dfg.Analysis, alg Algorithm,
	lbl *labels.Labels, labelGuided bool, cfg config, opts Options, start time.Time) *portfolio {

	maxII := opts.maxII(ar)
	p := &portfolio{
		ar: ar, g: g, an: an, alg: alg, lbl: lbl, cfg: cfg, opts: opts, start: start,
		minII: ar.MinII(g), maxII: maxII,
		shared: &portShared{},
	}
	p.shared.bestII.Store(int64(maxII) + 1)
	p.variants = chainVariants(opts.Restarts)
	p.budgets = chainBudgets(opts.Restarts, opts.MaxMoves, labelGuided, lbl, p.variants)
	return p
}

// race runs every chain of a K>1 portfolio and returns the deterministic
// winner.
func (p *portfolio) race() (Result, error) {
	chains := make([]chainResult, p.opts.Restarts)
	parallel.ForEach(p.opts.Workers, len(chains), func(c int) {
		chains[c] = p.runChain(c)
	})
	return p.pickWinner(chains)
}

// seed is chain c's annealer seed: chain 0 keeps the caller's, the others
// derive theirs from it.
func (p *portfolio) seed(c int) int64 {
	if c == 0 {
		return p.opts.Seed
	}
	return parallel.DeriveSeed(p.opts.Seed, c)
}

// runChain runs chain c of a K>1 race. A panicking chain is contained here
// (before parallel.ForEach's re-raise) and becomes an errored chain — one
// poisoned chain must degrade to the survivors' winner, never crash the
// race.
func (p *portfolio) runChain(c int) (out chainResult) {
	defer func() {
		if r := recover(); r != nil {
			out = chainResult{err: fmt.Errorf("mapper: %s engine chain %d panicked: %v", p.alg, c, r)}
		}
	}()
	// Fault site mapper.portfolio, streamed by the chain seed: each chain
	// draws its own fault decision, so a sub-1 probability poisons a strict
	// subset of the race deterministically.
	err := fault.Inject(fault.MapperPortfolio, uint64(p.seed(c)))
	if err == nil {
		out = p.sweep(c)
		err = out.err
	}
	if err != nil {
		out.err = fmt.Errorf("mapper: %s engine chain %d: %w", p.alg, c, err)
	}
	return out
}

// sweep runs chain c's II sweep, the mapper's only annealing loop: it
// anneals at each II from the resource-minimal one up and stops at the
// first II that maps, at the deadline, or once another chain has mapped at
// a lower II. The only cross-chain influence is that abandonment poll,
// which can end the chain early but never change what it would have
// produced. An injected router fault ends the sweep and comes back
// unwrapped in out.err.
func (p *portfolio) sweep(c int) (out chainResult) {
	seed := p.seed(c)
	opts := p.opts
	opts.MaxMoves = p.budgets[c]
	rng := rand.New(rand.NewSource(seed))
	res := &out.res
	for ii := p.minII; ii <= p.maxII; ii++ {
		// The budget check gates the *start* of each II attempt: once the
		// limit is exhausted no further attempt begins, so TriedIIs never
		// records an II that was not allowed to run. (Checking only after
		// an attempt would both start attempts with no budget left and skip
		// the check entirely when an overrunning attempt succeeds.)
		if opts.TimeLimit > 0 && time.Since(p.start) > opts.TimeLimit {
			break
		}
		if p.shared.abandoned(ii) {
			break
		}
		res.TriedIIs = append(res.TriedIIs, ii)
		st := newState(p.ar, p.g, p.an, ii, p.lbl, p.cfg, opts.Alpha, rng)
		st.faultToken = uint64(seed)
		st.shared = p.shared
		if p.variants[c] == seedGreedy {
			// Greedy-seeded chain: list-schedule the initial mapping (a
			// partial placement on failure is fine — the movement loop
			// repairs from wherever the pass stopped).
			st.initialPhase = true
			greedyPass(st, p.an)
			st.initialPhase = false
			st.preSeeded = true
		} else if p.variants[c] == seedRandom {
			st.randomSeed = true
		}
		ok, moves := st.anneal(opts, p.start)
		res.Moves += moves
		if st.faultErr != nil {
			out.err = st.faultErr
			return out
		}
		if ok {
			out.hops = st.fill(res)
			p.shared.publish(ii)
			break
		}
	}
	// The deadline either stopped the sweep at the check above or cut its
	// last attempt mid-anneal (the movement loop checks it every 64 moves).
	out.deadline = !res.OK && opts.TimeLimit > 0 && time.Since(p.start) > opts.TimeLimit
	return out
}

// chainBetter reports whether a beats b under the race's total order:
// OK first, then lower II, then fewer hops. Ties fall to the caller's
// ascending-index scan, completing the deterministic (cost, chain index)
// tie-break.
func chainBetter(a, b *chainResult) bool {
	if a.res.OK != b.res.OK {
		return a.res.OK
	}
	if !a.res.OK {
		return false
	}
	if a.res.II != b.res.II {
		return a.res.II < b.res.II
	}
	return a.hops < b.hops
}

// pickWinner folds the chain results into one Result. All-chains-errored
// surfaces the lowest-index chain's error (deterministic, and exactly what
// the engine degradation ladder keys off); otherwise errored chains simply
// drop out of the race.
func (p *portfolio) pickWinner(chains []chainResult) (Result, error) {
	winner, firstErr := -1, -1
	deadline := false
	for c := range chains {
		if chains[c].deadline {
			deadline = true
		}
		if chains[c].err != nil {
			if firstErr < 0 {
				firstErr = c
			}
			continue
		}
		if winner < 0 || chainBetter(&chains[c], &chains[winner]) {
			winner = c
		}
	}
	if winner < 0 {
		return Result{}, chains[firstErr].err
	}
	res := chains[winner].res
	res.Duration = time.Since(p.start)
	if deadline {
		// At least one chain was wall-clock-cut: the race did not run to
		// completion, so this winner is "best completed before the
		// deadline", not the deterministic fixed point. Label it so no
		// tier caches it. (An OK winner still satisfies the engine ladder —
		// it only degrades on !OK.)
		res.DeadlineExceeded = true
	}
	res.Portfolio = &PortfolioInfo{
		Restarts: len(chains),
		Winner:   winner,
		Variant:  variantName(p.variants[winner]),
		Budgets:  p.budgets,
	}
	return res, nil
}

// chainVariants assigns each chain its initial-placement family.
func chainVariants(k int) []uint8 {
	out := make([]uint8, k)
	for c := 1; c < k; c++ {
		switch (c - 1) % 3 {
		case 0:
			out[c] = seedGreedy
		case 1:
			out[c] = seedRandom
		default:
			out[c] = seedEngine
		}
	}
	return out
}

// chainBudgets splits the movement budget across chains. Chain 0 always
// keeps the caller's full MaxMoves — it is the K=1 run, and an intact
// budget is what makes the portfolio winner provably no worse than the
// single-chain result. With caller-supplied GNN labels the remaining
// chains' budgets tilt by labelConfidence: a confident model earns the
// label-guided (engine/greedy) chains up to +25% movements at the expense
// of the unguided random explorers, a diffuse one tilts the other way.
// Without external labels every chain gets the full budget.
func chainBudgets(k, maxMoves int, labelGuided bool, lbl *labels.Labels, variants []uint8) []int {
	out := make([]int, k)
	out[0] = maxMoves
	conf := 0.0
	if labelGuided {
		conf = labelConfidence(lbl)
	}
	for c := 1; c < k; c++ {
		w := 1.0
		if labelGuided {
			if variants[c] == seedRandom {
				w = 1.25 - 0.5*conf // 1.25 … 0.75 as confidence rises
			} else {
				w = 0.75 + 0.5*conf // 0.75 … 1.25 as confidence rises
			}
		}
		b := int(math.Round(float64(maxMoves) * w))
		if b < 64 {
			b = 64
		}
		out[c] = b
	}
	return out
}

// labelConfidence scores a GNN label set in [0, 1]: the mean reciprocal of
// the predicted temporal mapping distances (label 4). Temporal labels are
// at least 1 hop; a model predicting tight routes (values near 1) is
// reading a compact, confident mapping out of the graph, while large
// predictions say the model expects congestion and detours — budget then
// shifts from guided chains to unguided exploration. A pure function of
// the labels, so every derived budget is deterministic.
func labelConfidence(l *labels.Labels) float64 {
	if len(l.Temporal) == 0 {
		return 0
	}
	sum := 0.0
	for _, t := range l.Temporal {
		if t < 1 {
			t = 1
		}
		sum += 1 / t
	}
	return sum / float64(len(l.Temporal))
}
