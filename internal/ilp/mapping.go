package ilp

import (
	"sort"
	"time"

	"github.com/lisa-go/lisa/internal/arch"
	"github.com/lisa-go/lisa/internal/dfg"
	"github.com/lisa-go/lisa/internal/mapper"
	"github.com/lisa-go/lisa/internal/rgraph"
)

// Options bounds the ILP mapper. The paper grants CGRA-ME's ILP two hours
// per target II; experiment profiles scale this down proportionally.
type Options struct {
	TimeLimitPerII time.Duration
	MaxNodes       int // B&B node budget per solve (0 = unlimited)
	MaxCutRounds   int // lazy routing-cut iterations per II
	MaxII          int // override of the architecture's max II (0 = arch)
	// MaxVars aborts formulation when the model would exceed this many
	// placement variables; mirrors "ILP requires more variables ... and
	// cannot scale" on the 8×8 array.
	MaxVars int
}

// DefaultOptions returns the quick-profile limits.
func DefaultOptions() Options {
	return Options{
		TimeLimitPerII: 2 * time.Second,
		MaxNodes:       400000,
		MaxCutRounds:   25,
		MaxVars:        20000,
	}
}

// slotVar maps one placement variable to its (node, pe, time) meaning.
type slotVar struct {
	node, pe, t int
}

// Map runs the exact mapper: for each II from MII upward it formulates the
// 0–1 placement problem, solves it with branch and bound, checks routability
// of the integer solution on the real resource graph, and adds no-good cuts
// for unroutable placements until the solution routes, the cut budget is
// exhausted, or the time limit fires.
//
// timeLimit, when positive, bounds the whole sweep, as mapper.Options'
// TimeLimit bounds the annealer's: no II starts after it, the model build
// and every solve stop at it, and a sweep it leaves without a mapping
// reports DeadlineExceeded.
func Map(ar arch.Arch, g *dfg.Graph, opts Options, timeLimit time.Duration) mapper.Result {
	if opts.TimeLimitPerII == 0 {
		opts.TimeLimitPerII = DefaultOptions().TimeLimitPerII
	}
	if opts.MaxCutRounds == 0 {
		opts.MaxCutRounds = DefaultOptions().MaxCutRounds
	}
	if opts.MaxVars == 0 {
		opts.MaxVars = DefaultOptions().MaxVars
	}
	start := time.Now()
	an := dfg.Analyze(g)
	res := mapper.Result{}

	maxII := ar.MaxII()
	if opts.MaxII > 0 && opts.MaxII < maxII {
		maxII = opts.MaxII
	}
	var deadline time.Time // zero: the sweep has no time limit
	if timeLimit > 0 {
		deadline = start.Add(timeLimit)
	}
	for ii := ar.MinII(g); ii <= maxII; ii++ {
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			break
		}
		res.TriedIIs = append(res.TriedIIs, ii)
		if ok := mapAtII(ar, g, an, ii, opts, deadline, &res); ok {
			res.OK = true
			res.II = ii
			break
		}
	}
	res.Duration = time.Since(start)
	res.DeadlineExceeded = !res.OK && timeLimit > 0 && res.Duration >= timeLimit
	return res
}

// mapAtII formulates and solves one II. Its solves stop TimeLimitPerII
// after the formulation; deadline (the sweep's, zero for none) stops the
// formulation and the solves, whichever is under way.
func mapAtII(ar arch.Arch, g *dfg.Graph, an *dfg.Analysis, ii int,
	opts Options, deadline time.Time, res *mapper.Result) bool {
	late := func() bool { return !deadline.IsZero() && !time.Now().Before(deadline) }

	diameter := 0
	for pe := 0; pe < ar.NumPEs(); pe++ {
		if d := ar.SpatialDistance(0, pe); d > diameter {
			diameter = d
		}
	}
	window := ii + diameter + 2
	schedLen := an.CriticalPath + window

	// Variables: x[v][slot] for compatible slots within the node's window.
	var vars []slotVar
	varID := map[[3]int]int{}
	nodeVars := make([][]int, g.NumNodes())
	for v := range g.Nodes {
		if late() {
			return false
		}
		op := g.Nodes[v].Op
		for t := an.ASAP[v]; t <= an.ASAP[v]+window && t < schedLen; t++ {
			for pe := 0; pe < ar.NumPEs(); pe++ {
				if !ar.SupportsOp(pe, op) {
					continue
				}
				id := len(vars)
				vars = append(vars, slotVar{node: v, pe: pe, t: t})
				varID[[3]int{v, pe, t}] = id
				nodeVars[v] = append(nodeVars[v], id)
			}
		}
		if len(nodeVars[v]) == 0 {
			return false // op unsupported anywhere (e.g. trmm on systolic)
		}
	}
	if len(vars) > opts.MaxVars {
		return false // formulation too large; ILP does not scale here
	}

	m := &Model{NumVars: len(vars)}
	for v := range g.Nodes {
		m.AddExactlyOne(nodeVars[v])
	}
	// Modulo-FU exclusivity: at most one op per (pe, t mod II). Constraints
	// are added in sorted (pe, slot) order: the branch-and-bound solver's
	// propagation and tie-breaking follow constraint order, so map-iteration
	// order here would make the returned placement (not just the search
	// path) vary run to run.
	fuVars := map[[2]int][]int{}
	for id, sv := range vars {
		key := [2]int{sv.pe, sv.t % ii}
		fuVars[key] = append(fuVars[key], id)
	}
	fuKeys := make([][2]int, 0, len(fuVars))
	for key := range fuVars {
		fuKeys = append(fuKeys, key)
	}
	sort.Slice(fuKeys, func(i, j int) bool {
		if fuKeys[i][0] != fuKeys[j][0] {
			return fuKeys[i][0] < fuKeys[j][0]
		}
		return fuKeys[i][1] < fuKeys[j][1]
	})
	for _, key := range fuKeys {
		group := fuVars[key]
		if len(group) < 2 {
			continue
		}
		terms := make([]Term, len(group))
		for i, v := range group {
			terms[i] = Term{Var: v, Coef: 1}
		}
		m.AddConstraint(Constraint{Terms: terms, Sense: LE, RHS: 1})
	}
	// Edge-feasibility support constraints. A pair of slots is certainly
	// unroutable when it violates causality (dt < 1) or distance
	// (spatial > dt). Rather than one cut per infeasible pair (quadratic in
	// slots), each slot gets a support constraint: choosing it implies some
	// compatible slot at the other endpoint,
	//	x[u,su] − Σ_{sv compatible with su} x[v,sv] ≤ 0
	// and symmetrically for the consumer side. These propagate like arc
	// consistency under the worklist solver.
	feasible := func(su, sv slotVar) bool {
		dt := sv.t - su.t
		return dt >= 1 && ar.SpatialDistance(su.pe, sv.pe) <= dt
	}
	for _, e := range g.Edges {
		if late() {
			return false
		}
		for _, uID := range nodeVars[e.From] {
			terms := []Term{{Var: uID, Coef: 1}}
			for _, vID := range nodeVars[e.To] {
				if feasible(vars[uID], vars[vID]) {
					terms = append(terms, Term{Var: vID, Coef: -1})
				}
			}
			m.AddConstraint(Constraint{Terms: terms, Sense: LE, RHS: 0})
		}
		for _, vID := range nodeVars[e.To] {
			terms := []Term{{Var: vID, Coef: 1}}
			for _, uID := range nodeVars[e.From] {
				if feasible(vars[uID], vars[vID]) {
					terms = append(terms, Term{Var: uID, Coef: -1})
				}
			}
			m.AddConstraint(Constraint{Terms: terms, Sense: LE, RHS: 0})
		}
	}
	// Objective: minimize total schedule time, i.e. the most compact (and
	// typically lowest-latency) placement.
	for id, sv := range vars {
		m.Objective = append(m.Objective, Term{Var: id, Coef: sv.t})
	}

	end := time.Now().Add(opts.TimeLimitPerII)
	for round := 0; round < opts.MaxCutRounds; round++ {
		remaining := time.Until(end)
		if remaining <= 0 || late() {
			return false
		}
		solver := &Solver{TimeLimit: remaining, Deadline: deadline, MaxNodes: opts.MaxNodes}
		sol, status := solver.Solve(m)
		if status == StatusInfeasible || status == StatusTimeout {
			return false
		}
		pe := make([]int, g.NumNodes())
		tm := make([]int, g.NumNodes())
		for id, val := range sol.Values {
			if val == 1 && id < len(vars) {
				sv := vars[id]
				pe[sv.node] = sv.pe
				tm[sv.node] = sv.t
			}
		}
		if hops, paths, cost, badEdge := tryRoute(ar, g, ii, pe, tm); badEdge < 0 {
			res.PE = pe
			res.Time = tm
			res.EdgeHops = hops
			res.Routes = paths
			res.RoutingCost = cost
			return true
		} else {
			// No-good cut: this exact placement of the failing edge's
			// endpoints is unroutable in context; forbid the pair.
			e := g.Edges[badEdge]
			uID := varID[[3]int{e.From, pe[e.From], tm[e.From]}]
			vID := varID[[3]int{e.To, pe[e.To], tm[e.To]}]
			m.AddConstraint(Constraint{
				Terms: []Term{{Var: uID, Coef: 1}, {Var: vID, Coef: 1}},
				Sense: LE, RHS: 1,
			})
		}
	}
	return false
}

// tryRoute routes every edge of the integer placement on the real resource
// graph. It returns the per-edge hop counts, paths and routing cost on
// success (badEdge == -1), or the first edge that failed.
func tryRoute(ar arch.Arch, g *dfg.Graph, ii int, pe, tm []int) (hops []int, paths [][]int, cost int, badEdge int) {
	rg := ar.BuildRGraph(ii)
	occ := rgraph.NewOccupancy(rg)
	maxHops := 0
	for _, e := range g.Edges {
		if d := tm[e.To] - tm[e.From]; d > maxHops {
			maxHops = d
		}
	}
	router := rgraph.NewRouter(rg, maxHops+1)
	for v := range g.Nodes {
		fu := rg.FUAt(pe[v], tm[v]%ii)
		if !occ.PlaceOp(fu, v) {
			return nil, nil, 0, 0 // exclusivity violated; cut the first edge
		}
	}
	hops = make([]int, g.NumEdges())
	paths = make([][]int, g.NumEdges())
	for i, e := range g.Edges {
		dt := tm[e.To] - tm[e.From]
		src := rg.FUAt(pe[e.From], tm[e.From]%ii)
		dst := rg.FUAt(pe[e.To], tm[e.To]%ii)
		path, _, ok := router.Route(occ, rgraph.Signal(e.From), src, dst, dt)
		if !ok {
			return nil, nil, 0, i
		}
		rgraph.Commit(occ, rgraph.Signal(e.From), path)
		hops[i] = len(path) - 1
		paths[i] = path
		if n := len(path) - 2; n > 0 {
			cost += n
		}
	}
	return hops, paths, cost, -1
}
