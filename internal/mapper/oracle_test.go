package mapper

// Test-only oracles for the annealer's incremental cost tally: full
// recomputes of the objective and of validity that the tally must match.

import "fmt"

// costFull recomputes the objective from scratch; it is the reference the
// tally check and the incremental-cost tests compare cost() against.
func (st *state) costFull() float64 {
	c := 0.0
	for _, p := range st.pe {
		if p < 0 {
			c += costUnplaced
		}
	}
	for e, r := range st.routes {
		if r == nil {
			ed := st.g.Edges[e]
			if st.pe[ed.From] >= 0 && st.pe[ed.To] >= 0 {
				c += costFailedEdge
			}
			continue
		}
		c += float64(len(r) - 1)
	}
	return c
}

// validFull is the reference full-scan validity check.
func (st *state) validFull() bool {
	for _, p := range st.pe {
		if p < 0 {
			return false
		}
	}
	for _, r := range st.routes {
		if r == nil {
			return false
		}
	}
	return true
}

// assertTally panics when the incremental tally disagrees with costFull or
// validFull; TestIncrementalCostMatchesFullRecompute installs it as
// checkTally.
func assertTally(st *state, when string) {
	if got, want := st.cost(), st.costFull(); got != want {
		panic(fmt.Sprintf("mapper: incremental cost drifted %s: tally %v -> %v, recompute %v",
			when, st.tally, got, want))
	}
	if st.valid() != st.validFull() {
		panic(fmt.Sprintf("mapper: incremental validity drifted %s: tally %v", when, st.tally))
	}
}
