package ilp

import (
	"math/rand"
	"testing"
	"time"

	"github.com/lisa-go/lisa/internal/arch"
	"github.com/lisa-go/lisa/internal/kernels"
	"github.com/lisa-go/lisa/internal/mapper"
)

func TestSolverSimpleOptimal(t *testing.T) {
	// minimize x0 + 2*x1 s.t. x0 + x1 == 1  -> x0=1, obj 1.
	m := &Model{NumVars: 2, Objective: []Term{{0, 1}, {1, 2}}}
	m.AddExactlyOne([]int{0, 1})
	sol, st := (&Solver{}).Solve(m)
	if st != StatusOptimal {
		t.Fatalf("status = %v", st)
	}
	if sol.Objective != 1 || sol.Values[0] != 1 || sol.Values[1] != 0 {
		t.Fatalf("sol = %+v", sol)
	}
}

func TestSolverInfeasible(t *testing.T) {
	// x0 + x1 == 1 and x0 + x1 >= 2 is infeasible.
	m := &Model{NumVars: 2}
	m.AddExactlyOne([]int{0, 1})
	m.AddConstraint(Constraint{
		Terms: []Term{{0, 1}, {1, 1}}, Sense: GE, RHS: 2,
	})
	_, st := (&Solver{}).Solve(m)
	if st != StatusInfeasible {
		t.Fatalf("status = %v, want infeasible", st)
	}
}

func TestSolverConflictingGroups(t *testing.T) {
	// Three items, two slots (pigeonhole): infeasible.
	// x[i][s]: item i in slot s; each item exactly one slot; each slot <= 1.
	m := &Model{NumVars: 6}
	for i := 0; i < 3; i++ {
		m.AddExactlyOne([]int{i * 2, i*2 + 1})
	}
	for s := 0; s < 2; s++ {
		m.AddConstraint(Constraint{
			Terms: []Term{{s, 1}, {2 + s, 1}, {4 + s, 1}}, Sense: LE, RHS: 1,
		})
	}
	_, st := (&Solver{}).Solve(m)
	if st != StatusInfeasible {
		t.Fatalf("pigeonhole status = %v, want infeasible", st)
	}
}

func TestSolverAssignmentOptimum(t *testing.T) {
	// 3 items, 3 slots, cost matrix; optimal assignment cost is 1+2+1 = 4.
	cost := [3][3]int{{1, 5, 9}, {2, 2, 7}, {8, 4, 1}}
	m := &Model{NumVars: 9}
	for i := 0; i < 3; i++ {
		grp := []int{}
		for s := 0; s < 3; s++ {
			v := i*3 + s
			grp = append(grp, v)
			m.Objective = append(m.Objective, Term{Var: v, Coef: cost[i][s]})
		}
		m.AddExactlyOne(grp)
	}
	for s := 0; s < 3; s++ {
		m.AddConstraint(Constraint{
			Terms: []Term{{s, 1}, {3 + s, 1}, {6 + s, 1}}, Sense: LE, RHS: 1,
		})
	}
	sol, st := (&Solver{}).Solve(m)
	if st != StatusOptimal || sol.Objective != 4 {
		t.Fatalf("status=%v obj=%d, want optimal 4", st, sol.Objective)
	}
}

func TestSolverTimeout(t *testing.T) {
	// A big pigeonhole instance with a nanosecond budget must time out.
	n := 12
	m := &Model{NumVars: n * (n - 1)}
	for i := 0; i < n; i++ {
		grp := []int{}
		for s := 0; s < n-1; s++ {
			grp = append(grp, i*(n-1)+s)
		}
		m.AddExactlyOne(grp)
	}
	for s := 0; s < n-1; s++ {
		var terms []Term
		for i := 0; i < n; i++ {
			terms = append(terms, Term{Var: i*(n-1) + s, Coef: 1})
		}
		m.AddConstraint(Constraint{Terms: terms, Sense: LE, RHS: 1})
	}
	_, st := (&Solver{MaxNodes: 50}).Solve(m)
	if st != StatusTimeout && st != StatusInfeasible {
		t.Fatalf("status = %v, want timeout or infeasible", st)
	}
}

// TestSolverDeadlineStopsAtFirstNode: a Deadline already past stops the
// search at its first node, before it finds the solution it finds without.
func TestSolverDeadlineStopsAtFirstNode(t *testing.T) {
	m := &Model{NumVars: 2}
	m.AddExactlyOne([]int{0, 1})
	if _, st := (&Solver{}).Solve(m); st != StatusOptimal {
		t.Fatalf("without a deadline: status = %v, want optimal", st)
	}
	if _, st := (&Solver{Deadline: time.Now().Add(-time.Second)}).Solve(m); st != StatusTimeout {
		t.Fatalf("past its deadline: status = %v, want timeout", st)
	}
}

func TestILPMapsSmallKernel(t *testing.T) {
	ar := arch.NewBaseline4x4()
	g := kernels.MustByName("doitgen")
	res := Map(ar, g, Options{TimeLimitPerII: 4 * time.Second}, 0)
	if !res.OK {
		t.Fatal("ILP failed on doitgen / 4x4")
	}
	if err := mapper.Verify(ar, g, &res); err != nil {
		t.Fatal(err)
	}
	if res.II < ar.MinII(g) {
		t.Fatalf("II %d below MII", res.II)
	}
}

func TestILPFailsOnOversizedFormulation(t *testing.T) {
	ar := arch.NewBaseline8x8()
	g, _ := kernels.Unrolled("2mm")
	res := Map(ar, g, Options{TimeLimitPerII: time.Second, MaxVars: 500}, 0)
	if res.OK {
		t.Fatal("expected scale failure with tiny MaxVars")
	}
	if res.II != 0 {
		t.Fatal("failed ILP must report II 0")
	}
}

func TestILPRejectsUnsupportedOps(t *testing.T) {
	ar := arch.NewSystolic5x5()
	g := kernels.MustByName("trmm")
	res := Map(ar, g, Options{TimeLimitPerII: time.Second}, 0)
	if res.OK {
		t.Fatal("trmm must be unmappable on systolic for ILP too")
	}
}

func TestILPWithinBudgetComparableToLISA(t *testing.T) {
	// On a small kernel ILP should find an II no worse than LISA's +1
	// (it is exact given time; LISA is a heuristic).
	ar := arch.NewBaseline4x4()
	g := kernels.MustByName("syrk")
	ilpRes := Map(ar, g, Options{TimeLimitPerII: 4 * time.Second}, 0)
	lisaRes, err := mapper.Map(ar, g, mapper.AlgLISA, nil, mapper.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !ilpRes.OK {
		t.Skip("ILP timed out on this machine; acceptable")
	}
	if err := mapper.Verify(ar, g, &ilpRes); err != nil {
		t.Fatal(err)
	}
	if lisaRes.OK && ilpRes.II > lisaRes.II+2 {
		t.Errorf("ILP II=%d much worse than LISA II=%d", ilpRes.II, lisaRes.II)
	}
}

// bruteForce enumerates all assignments of a small model and returns the
// optimal objective, or ok=false when infeasible.
func bruteForce(m *Model) (best int, ok bool) {
	best = 1 << 60
	n := m.NumVars
	for bits := 0; bits < 1<<uint(n); bits++ {
		feasible := true
		for _, c := range m.Cons {
			lhs := 0
			for _, t := range c.Terms {
				if bits>>uint(t.Var)&1 == 1 {
					lhs += t.Coef
				}
			}
			switch c.Sense {
			case LE:
				feasible = feasible && lhs <= c.RHS
			case GE:
				feasible = feasible && lhs >= c.RHS
			case EQ:
				feasible = feasible && lhs == c.RHS
			}
			if !feasible {
				break
			}
		}
		if !feasible {
			continue
		}
		obj := 0
		for _, t := range m.Objective {
			if bits>>uint(t.Var)&1 == 1 {
				obj += t.Coef
			}
		}
		if obj < best {
			best, ok = obj, true
		}
	}
	return best, ok
}

// randomModel builds a small random model with exactly-one groups plus LE
// side constraints — the same structure the mapping formulation produces.
func randomModel(rng *rand.Rand) *Model {
	groups := 2 + rng.Intn(3)
	per := 2 + rng.Intn(2)
	m := &Model{NumVars: groups * per}
	for gI := 0; gI < groups; gI++ {
		var grp []int
		for k := 0; k < per; k++ {
			v := gI*per + k
			grp = append(grp, v)
			m.Objective = append(m.Objective, Term{Var: v, Coef: rng.Intn(9) - 2})
		}
		m.AddExactlyOne(grp)
	}
	for c := 0; c < 2+rng.Intn(3); c++ {
		var terms []Term
		for v := 0; v < m.NumVars; v++ {
			if rng.Intn(3) == 0 {
				terms = append(terms, Term{Var: v, Coef: 1 + rng.Intn(2)})
			}
		}
		if len(terms) == 0 {
			continue
		}
		m.AddConstraint(Constraint{Terms: terms, Sense: LE, RHS: rng.Intn(4)})
	}
	return m
}

func TestSolverMatchesBruteForce(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := randomModel(rng)
		want, feasible := bruteForce(m)
		sol, st := (&Solver{}).Solve(m)
		if feasible {
			if st != StatusOptimal {
				t.Fatalf("seed %d: status %v, brute force found optimum %d", seed, st, want)
			}
			if sol.Objective != want {
				t.Fatalf("seed %d: objective %d, brute force %d", seed, sol.Objective, want)
			}
		} else if st != StatusInfeasible {
			t.Fatalf("seed %d: status %v, brute force says infeasible", seed, st)
		}
	}
}
