package mapper

import (
	"sort"
	"time"

	"github.com/lisa-go/lisa/internal/arch"
	"github.com/lisa-go/lisa/internal/dfg"
	"github.com/lisa-go/lisa/internal/labels"
)

// MapGreedy is a deterministic list-scheduling mapper in the mould of the
// classic hybrid heuristics the paper's related work surveys (modulo graph
// embedding, edge-centric modulo scheduling): nodes are placed one pass in
// priority order (critical-path height first), each on the locally cheapest
// compatible slot, and each incoming edge is routed immediately. No
// backtracking, no annealing — it is extremely fast, finds decent mappings
// when resources are plentiful, and gives up where the paper says greedy
// local views give up: dense DFGs on constrained arrays.
//
// It shares the engine state with the SA mappers, so its results pass the
// same Verify/sim checks.
func MapGreedy(ar arch.Arch, g *dfg.Graph, opts Options) Result {
	opts = opts.withDefaults()
	an := dfg.Analyze(g)
	lbl := labels.Initial(an)

	start := time.Now()
	res := Result{}
	for ii, maxII := ar.MinII(g), opts.maxII(ar); ii <= maxII; ii++ {
		res.TriedIIs = append(res.TriedIIs, ii)
		st := newState(ar, g, an, ii, lbl, config{}, opts.Alpha, nil)
		st.faultToken = uint64(opts.Seed)
		if greedyPass(st, an) {
			st.fill(&res)
			break
		}
		if st.faultErr != nil {
			// An injected router fault fails every II the same way; one
			// attempt is evidence enough.
			break
		}
	}
	res.Duration = time.Since(start)
	return res
}

// greedyPass places and routes every node once; it reports success only if
// the complete mapping is valid.
func greedyPass(st *state, an *dfg.Analysis) bool {
	g := st.g
	// Height-based priority: nodes on long downward chains first within an
	// ASAP level (standard list-scheduling priority).
	height := make([]int, g.NumNodes())
	for i := len(an.Topo) - 1; i >= 0; i-- {
		v := an.Topo[i]
		for _, s := range g.Succ(v) {
			if height[s]+1 > height[v] {
				height[v] = height[s] + 1
			}
		}
	}
	order := make([]int, g.NumNodes())
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if an.ASAP[a] != an.ASAP[b] {
			return an.ASAP[a] < an.ASAP[b]
		}
		if height[a] != height[b] {
			return height[a] > height[b]
		}
		return a < b
	})

	var placed []int // PEs hosting ops, for the spreading tie-break
	for _, v := range order {
		cands := st.candidates(v)
		if len(cands) == 0 {
			return false
		}
		// Deterministic local cost: earliest time, then closest to placed
		// parents, then smallest PE index. Parentless candidates (constants,
		// first loads) spread out instead of clustering: packing them into
		// one corner walls off its routing — literally the failure of the
		// paper's Fig. 5a — so for them "distance" is the negated distance
		// to the nearest already-placed op.
		type scored struct {
			slot
			key [3]int
		}
		var feas []scored
		for _, c := range cands {
			distSum := 0
			anchored := false
			feasible := true
			for _, ei := range g.InEdges(v) {
				u := g.Edges[ei].From
				if st.pe[u] < 0 {
					continue
				}
				anchored = true
				dt := c.t - st.time[u]
				sd := st.ar.SpatialDistance(c.pe, st.pe[u])
				if dt < 1 || sd > dt {
					feasible = false
					break
				}
				distSum += sd
			}
			if !feasible {
				continue
			}
			if !anchored && len(placed) > 0 {
				nearest := 1 << 30
				for _, p := range placed {
					if d := st.ar.SpatialDistance(c.pe, p); d < nearest {
						nearest = d
					}
				}
				distSum = -nearest
			}
			feas = append(feas, scored{slot: c, key: [3]int{c.t, distSum, c.pe}})
		}
		sort.Slice(feas, func(i, j int) bool { return keyLess(feas[i].key, feas[j].key) })
		// Local repair: walk the candidate ranking until one both places
		// and routes. This is per-node only — no global backtracking, so
		// the engine remains a one-pass list scheduler.
		const maxTries = 24
		success := false
		for ci, c := range feas {
			if ci >= maxTries {
				break
			}
			fu := st.fuAt(c.pe, c.t)
			if !st.occ.PlaceOp(fu, v) {
				continue
			}
			st.place(v, c.pe, c.t)
			var routed []int
			ok := true
			for _, ei := range g.InEdges(v) {
				if st.pe[g.Edges[ei].From] < 0 {
					continue
				}
				if st.routeEdge(ei) {
					routed = append(routed, ei)
				} else {
					ok = false
					break
				}
			}
			if ok {
				success = true
				placed = append(placed, c.pe)
				break
			}
			for _, ei := range routed {
				st.unroute(ei)
			}
			st.occ.RemoveOp(fu, v)
			st.unplace(v)
		}
		if !success {
			return false
		}
	}
	return st.valid()
}

func keyLess(a, b [3]int) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}
