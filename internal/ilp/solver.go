// Package ilp provides the Integer Linear Programming baseline of the
// paper's evaluation (CGRA-ME's ILP mapper, §VI). It contains a small
// general-purpose 0–1 ILP solver — branch and bound with constraint
// propagation and objective bounding — and a mapping formulation with
// placement variables, exclusivity constraints and lazily generated routing
// no-good cuts.
//
// The solver is exact: given enough time it either proves infeasibility or
// returns an optimal solution. The paper's qualitative result is that exact
// optimization does not scale to large DFGs or arrays even with generous
// time limits; the same behaviour falls out of this implementation.
package ilp

import (
	"time"
)

// Sense is a linear constraint's comparison direction.
type Sense int8

// Constraint senses.
const (
	LE Sense = iota // Σ coef·x <= RHS
	GE              // Σ coef·x >= RHS
	EQ              // Σ coef·x == RHS
)

// Term is one coefficient–variable product.
type Term struct {
	Var  int
	Coef int
}

// Constraint is a linear constraint over binary variables.
type Constraint struct {
	Terms []Term
	Sense Sense
	RHS   int
}

// Model is a 0–1 integer program: minimize Objective subject to Cons.
type Model struct {
	NumVars   int
	Objective []Term
	Cons      []Constraint

	// ExactlyOne lists groups of variables of which exactly one must be 1.
	// They are also regular EQ constraints, but declaring them here lets
	// the solver branch on whole groups (SOS1 branching), which is what
	// makes assignment-structured models tractable.
	ExactlyOne [][]int
}

// AddConstraint appends c to the model.
func (m *Model) AddConstraint(c Constraint) { m.Cons = append(m.Cons, c) }

// AddExactlyOne adds a group constraint Σ x == 1 and registers it for group
// branching.
func (m *Model) AddExactlyOne(vars []int) {
	terms := make([]Term, len(vars))
	for i, v := range vars {
		terms[i] = Term{Var: v, Coef: 1}
	}
	m.AddConstraint(Constraint{Terms: terms, Sense: EQ, RHS: 1})
	m.ExactlyOne = append(m.ExactlyOne, vars)
}

// Status reports how a solve ended.
type Status int8

// Solve outcomes.
const (
	StatusOptimal Status = iota
	StatusFeasible
	StatusInfeasible
	StatusTimeout
)

func (s Status) String() string {
	switch s {
	case StatusOptimal:
		return "optimal"
	case StatusFeasible:
		return "feasible"
	case StatusInfeasible:
		return "infeasible"
	default:
		return "timeout"
	}
}

// Solution is an incumbent assignment.
type Solution struct {
	Values    []int8
	Objective int
}

// Solver carries search limits.
type Solver struct {
	TimeLimit time.Duration // zero means unlimited; polled every 256 nodes
	// Deadline, when set, also stops the search. It is polled at every
	// node, so one node's propagation is all a search runs past it.
	Deadline time.Time
	MaxNodes int // zero means unlimited
}

type searchCtx struct {
	m        *Model
	varCons  [][]int32 // var -> constraint indexes it appears in
	assign   []int8    // -1 unknown
	objCoef  []int
	best     *Solution
	bestObj  int
	deadline time.Time
	hasLimit bool
	stopAt   time.Time // Solver.Deadline
	nodes    int
	maxNodes int
	aborted  bool

	queue   []int32 // constraint worklist for propagation
	inQueue []bool
}

// Solve runs branch and bound on m.
func (s *Solver) Solve(m *Model) (Solution, Status) {
	ctx := &searchCtx{
		m:        m,
		assign:   make([]int8, m.NumVars),
		objCoef:  make([]int, m.NumVars),
		bestObj:  1 << 60,
		maxNodes: s.MaxNodes,
		stopAt:   s.Deadline,
	}
	for i := range ctx.assign {
		ctx.assign[i] = -1
	}
	for _, t := range m.Objective {
		ctx.objCoef[t.Var] += t.Coef
	}
	ctx.varCons = make([][]int32, m.NumVars)
	for ci, c := range m.Cons {
		for _, t := range c.Terms {
			ctx.varCons[t.Var] = append(ctx.varCons[t.Var], int32(ci))
		}
	}
	ctx.inQueue = make([]bool, len(m.Cons))
	if s.TimeLimit > 0 {
		ctx.deadline = time.Now().Add(s.TimeLimit)
		ctx.hasLimit = true
	}

	ctx.search(nil)

	switch {
	case ctx.best != nil && !ctx.aborted:
		return *ctx.best, StatusOptimal
	case ctx.best != nil:
		return *ctx.best, StatusFeasible
	case ctx.aborted:
		return Solution{}, StatusTimeout
	default:
		return Solution{}, StatusInfeasible
	}
}

// timeUp polls the limits.
func (c *searchCtx) timeUp() bool {
	c.nodes++
	if c.maxNodes > 0 && c.nodes > c.maxNodes {
		c.aborted = true
		return true
	}
	if c.hasLimit && c.nodes%256 == 0 && time.Now().After(c.deadline) ||
		!c.stopAt.IsZero() && time.Now().After(c.stopAt) {
		c.aborted = true
		return true
	}
	return c.aborted
}

// bounds computes the reachable [min, max] of a constraint's LHS under the
// current partial assignment.
func (c *searchCtx) bounds(con *Constraint) (lo, hi int) {
	for _, t := range con.Terms {
		switch c.assign[t.Var] {
		case 1:
			lo += t.Coef
			hi += t.Coef
		case -1:
			if t.Coef > 0 {
				hi += t.Coef
			} else {
				lo += t.Coef
			}
		}
	}
	return lo, hi
}

// consistent reports whether a constraint can still be satisfied.
func consistent(sense Sense, rhs, lo, hi int) bool {
	switch sense {
	case LE:
		return lo <= rhs
	case GE:
		return hi >= rhs
	default:
		return lo <= rhs && hi >= rhs
	}
}

// propagate fixes forced variables until a fixed point, visiting only the
// constraints whose variables changed (worklist propagation). seeds is the
// set of variables assigned just before the call; nil seeds every
// constraint (the root node). It appends forced variables to trail and
// returns false on contradiction. The worklist is drained even on failure so
// the context stays reusable.
func (c *searchCtx) propagate(seeds []int, trail *[]int) bool {
	c.queue = c.queue[:0]
	push := func(ci int32) {
		if !c.inQueue[ci] {
			c.inQueue[ci] = true
			c.queue = append(c.queue, ci)
		}
	}
	if seeds == nil {
		for ci := range c.m.Cons {
			push(int32(ci))
		}
	} else {
		for _, v := range seeds {
			for _, ci := range c.varCons[v] {
				push(ci)
			}
		}
	}
	ok := true
	for len(c.queue) > 0 {
		ci := c.queue[len(c.queue)-1]
		c.queue = c.queue[:len(c.queue)-1]
		c.inQueue[ci] = false
		if !ok {
			continue // drain to reset inQueue
		}
		con := &c.m.Cons[ci]
		lo, hi := c.bounds(con)
		if !consistent(con.Sense, con.RHS, lo, hi) {
			ok = false
			continue
		}
		for _, t := range con.Terms {
			if c.assign[t.Var] != -1 {
				continue
			}
			okZero := c.valueOK(con, lo, hi, t.Coef, 0)
			okOne := c.valueOK(con, lo, hi, t.Coef, 1)
			var forced int8
			switch {
			case !okZero && !okOne:
				ok = false
			case !okZero:
				forced = 1
			case !okOne:
				forced = 0
			default:
				continue
			}
			if !ok {
				break
			}
			c.assign[t.Var] = forced
			*trail = append(*trail, t.Var)
			if forced == 1 {
				lo += max0(t.Coef)
				hi += min0(t.Coef)
			} else {
				hi -= max0(t.Coef)
				lo -= min0(t.Coef)
			}
			for _, other := range c.varCons[t.Var] {
				if other != ci {
					push(other)
				}
			}
		}
	}
	return ok
}

func max0(x int) int {
	if x > 0 {
		return x
	}
	return 0
}

func min0(x int) int {
	if x < 0 {
		return x
	}
	return 0
}

// valueOK tests whether setting a variable with coefficient coef to val keeps
// the constraint satisfiable, given the current [lo, hi] bounds.
func (c *searchCtx) valueOK(con *Constraint, lo, hi, coef, val int) bool {
	nlo, nhi := lo, hi
	if coef > 0 {
		if val == 1 {
			nlo += coef
		} else {
			nhi -= coef
		}
	} else if coef < 0 {
		if val == 1 {
			nhi += coef
		} else {
			nlo -= coef
		}
	}
	return consistent(con.Sense, con.RHS, nlo, nhi)
}

// objLowerBound is the objective value reachable from the current partial
// assignment (binary vars: unassigned positive coefficients contribute 0,
// negative ones contribute fully).
func (c *searchCtx) objLowerBound() int {
	lb := 0
	for v, coef := range c.objCoef {
		switch {
		case c.assign[v] == 1:
			lb += coef
		case c.assign[v] == -1 && coef < 0:
			lb += coef
		}
	}
	return lb
}

// pickGroup returns an ExactlyOne group with no assigned 1 yet, preferring
// the group with the fewest open variables (fail-first).
func (c *searchCtx) pickGroup() []int {
	var best []int
	bestOpen := 1 << 30
	for _, grp := range c.m.ExactlyOne {
		open, done := 0, false
		for _, v := range grp {
			switch c.assign[v] {
			case 1:
				done = true
			case -1:
				open++
			}
			if done {
				break
			}
		}
		if done || open == 0 {
			continue
		}
		if open < bestOpen {
			bestOpen = open
			best = grp
		}
	}
	return best
}

func (c *searchCtx) search(seeds []int) {
	if c.timeUp() {
		return
	}
	var trail []int
	if !c.propagate(seeds, &trail) {
		c.undo(trail)
		return
	}
	if c.objLowerBound() >= c.bestObj {
		c.undo(trail)
		return
	}

	grp := c.pickGroup()
	if grp == nil {
		// All groups satisfied; finish remaining free vars greedily (they
		// can only be constrained by LE/GE constraints; propagation has
		// already fixed the forced ones, prefer 0 for positive objective).
		var tail []int
		feasible := true
		for v := 0; v < c.m.NumVars && feasible; v++ {
			if c.assign[v] != -1 {
				continue
			}
			want := int8(0)
			if c.objCoef[v] < 0 {
				want = 1
			}
			c.assign[v] = want
			tail = append(tail, v)
			if !c.propagate([]int{v}, &tail) {
				// Try the other value.
				c.assign[v] = 1 - want
				if !c.propagate([]int{v}, &tail) {
					feasible = false
				}
			}
		}
		if feasible {
			obj := 0
			for v, coef := range c.objCoef {
				if c.assign[v] == 1 {
					obj += coef
				}
			}
			if obj < c.bestObj {
				c.bestObj = obj
				vals := append([]int8(nil), c.assign...)
				c.best = &Solution{Values: vals, Objective: obj}
			}
		}
		c.undo(tail)
		c.undo(trail)
		return
	}

	// Branch: try each open variable of the group at 1, cheapest first.
	open := make([]int, 0, len(grp))
	for _, v := range grp {
		if c.assign[v] == -1 {
			open = append(open, v)
		}
	}
	for i := 0; i < len(open); i++ {
		for j := i + 1; j < len(open); j++ {
			if c.objCoef[open[j]] < c.objCoef[open[i]] {
				open[i], open[j] = open[j], open[i]
			}
		}
	}
	var explored []int
	for _, v := range open {
		if c.aborted {
			break
		}
		c.assign[v] = 1
		c.search([]int{v})
		// Exclude v from later subtrees of this node: solutions with v=1
		// were fully enumerated above.
		c.assign[v] = 0
		explored = append(explored, v)
	}
	c.undo(explored)
	c.undo(trail)
}

func (c *searchCtx) undo(trail []int) {
	for _, v := range trail {
		c.assign[v] = -1
	}
}
