package mapper

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"github.com/lisa-go/lisa/internal/arch"
	"github.com/lisa-go/lisa/internal/dfg"
	"github.com/lisa-go/lisa/internal/labels"
	"github.com/lisa-go/lisa/internal/rgraph"
)

// buildAnnealState mirrors the anneal prologue on a random kernel: fresh
// state, initial label-guided placement, pending edges routed. The returned
// state is mid-anneal — exactly the population the movement loop mutates.
func buildAnnealState(t testing.TB, gseed, seed int64, cfg config) *state {
	t.Helper()
	ar := arch.NewBaseline4x4()
	g := dfg.Random(rand.New(rand.NewSource(gseed)), dfg.DefaultRandomConfig(), "prop")
	an := dfg.Analyze(g)
	lbl := labels.Initial(an)
	opts := Options{Seed: seed}.withDefaults()
	st := newState(ar, g, an, ar.MinII(g), lbl, cfg, opts.Alpha, rand.New(rand.NewSource(seed)))
	st.initialPhase = true
	st.placeAll()
	st.routePending()
	st.initialPhase = false
	return st
}

// snapshot is a deep clone of the mutable state, the reference rollback
// path for the differential tests and the snapshot benchmarks.
type snapshot struct {
	occ    *rgraph.Occupancy
	pe     []int
	time   []int
	routes [][]int
	tally  costTally
}

// save deep-clones the mutable state — the pre-undo-log rollback mechanism.
// Production rollback goes through beginTxn/rollbackTxn; the differential
// test asserts both paths restore identical state.
func (st *state) save() snapshot {
	return snapshot{
		occ:    st.occ.Clone(),
		pe:     append([]int(nil), st.pe...),
		time:   append([]int(nil), st.time...),
		routes: append([][]int(nil), st.routes...),
		tally:  st.tally,
	}
}

func (st *state) restore(s snapshot) {
	st.occ = s.occ
	st.pe = s.pe
	st.time = s.time
	st.routes = s.routes
	st.tally = s.tally
}

// statesEqual compares a live state against a deep-clone snapshot: placement
// arrays, route paths, the cost tally, and the occupancy table (canonical,
// order-insensitive view).
func statesEqual(st *state, snap snapshot) (string, bool) {
	if !reflect.DeepEqual(st.pe, snap.pe) {
		return "pe", false
	}
	if !reflect.DeepEqual(st.time, snap.time) {
		return "time", false
	}
	if !reflect.DeepEqual(st.routes, snap.routes) {
		return "routes", false
	}
	if st.tally != snap.tally {
		return "tally", false
	}
	if !st.occ.Equivalent(snap.occ) {
		return "occupancy", false
	}
	return "", true
}

// TestRollbackMatchesCloneSnapshot is the differential test for the undo-log
// transaction: across random movement sequences, a rolled-back movement must
// leave the state identical to the deep-clone snapshot taken before it — the
// retired per-movement Clone() path, kept exactly for this comparison.
// Accepted movements advance both paths so the sequences stay realistic.
func TestRollbackMatchesCloneSnapshot(t *testing.T) {
	for _, cfg := range []config{
		{}, // vanilla SA
		{useOrderLabel: true, usePlacementLabels: true, useRoutingPriority: true}, // LISA
	} {
		for gseed := int64(1); gseed <= 3; gseed++ {
			name := fmt.Sprintf("labels=%v/graph%d", cfg.usePlacementLabels, gseed)
			t.Run(name, func(t *testing.T) {
				st := buildAnnealState(t, gseed, 42+gseed, cfg)
				coin := rand.New(rand.NewSource(7 * gseed))
				rolledBack := 0
				for move := 0; move < 400; move++ {
					snap := st.save()
					st.beginTxn()
					st.movement()
					st.attempted++
					if coin.Float64() < 0.5 {
						st.accepted++
						st.commitTxn()
						continue
					}
					st.rollbackTxn()
					rolledBack++
					if what, ok := statesEqual(st, snap); !ok {
						t.Fatalf("move %d: rollback diverged from clone snapshot in %s", move, what)
					}
				}
				if rolledBack == 0 {
					t.Fatal("coin never rejected; test exercised nothing")
				}
			})
		}
	}
}

// TestPlacementOrderIndex covers the orderIdx hoisting: the index must be the
// exact inverse of the placement order, and sortByPlacementOrder must produce
// the same sequence as the retired per-movement map[int]int + SliceStable.
func TestPlacementOrderIndex(t *testing.T) {
	st := buildAnnealState(t, 1, 1, config{useOrderLabel: true, usePlacementLabels: true})
	for rank, v := range st.order {
		if st.orderIdx[v] != rank {
			t.Fatalf("orderIdx[%d] = %d, want rank %d", v, st.orderIdx[v], rank)
		}
	}
	// Reference: the old implementation rebuilt this map every movement.
	oldIdx := make(map[int]int, len(st.order))
	for i, v := range st.order {
		oldIdx[v] = i
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(5)
		victims := make([]int, 0, n)
		seen := map[int]bool{}
		for len(victims) < n {
			v := rng.Intn(st.g.NumNodes())
			if !seen[v] {
				seen[v] = true
				victims = append(victims, v)
			}
		}
		want := append([]int(nil), victims...)
		sort.SliceStable(want, func(i, j int) bool { return oldIdx[want[i]] < oldIdx[want[j]] })
		st.sortByPlacementOrder(victims)
		if !reflect.DeepEqual(victims, want) {
			t.Fatalf("trial %d: sortByPlacementOrder = %v, want %v", trial, victims, want)
		}
	}
}

// TestIncrementalCostMatchesFullRecompute installs the tally check that
// cross-checks the running tally against a from-scratch recompute after every
// movement and every rollback, then drives full Map runs across engines and
// seeds. Any drift panics inside the anneal loop.
func TestIncrementalCostMatchesFullRecompute(t *testing.T) {
	checkTally = assertTally
	defer func() { checkTally = nil }()
	ar := arch.NewBaseline4x4()
	for _, alg := range []Algorithm{AlgSA, AlgLISA, AlgPart} {
		for gseed := int64(1); gseed <= 2; gseed++ {
			g := dfg.Random(rand.New(rand.NewSource(gseed)), dfg.DefaultRandomConfig(), "prop")
			for seed := int64(1); seed <= 2; seed++ {
				mustMap(t, ar, g, alg, nil, Options{Seed: seed, MaxMoves: 300})
			}
		}
	}
}

// TestGreedyTallyConsistent checks that the greedy engine's place/unplace
// bookkeeping (which bypasses transactions) keeps the incremental tally in
// sync, since greedyPass's final validity check reads it.
func TestGreedyTallyConsistent(t *testing.T) {
	ar := arch.NewBaseline4x4()
	for gseed := int64(1); gseed <= 3; gseed++ {
		g := dfg.Random(rand.New(rand.NewSource(gseed)), dfg.DefaultRandomConfig(), "prop")
		an := dfg.Analyze(g)
		lbl := labels.Initial(an)
		st := newState(ar, g, an, ar.MinII(g), lbl, config{}, 0.1, nil)
		greedyPass(st, an)
		if got, want := st.cost(), st.costFull(); got != want {
			t.Fatalf("graph %d: greedy tally cost %v, recompute %v", gseed, got, want)
		}
		if st.valid() != st.validFull() {
			t.Fatalf("graph %d: greedy tally validity diverged", gseed)
		}
	}
}
