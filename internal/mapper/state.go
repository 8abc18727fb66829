package mapper

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"time"

	"github.com/lisa-go/lisa/internal/arch"
	"github.com/lisa-go/lisa/internal/dfg"
	"github.com/lisa-go/lisa/internal/fault"
	"github.com/lisa-go/lisa/internal/labels"
	"github.com/lisa-go/lisa/internal/rgraph"
)

// Cost weights. Penalties dominate real routing costs so the annealer always
// prefers legalizing the mapping over shortening routes.
const (
	costUnplaced   = 1000.0
	costFailedEdge = 400.0
	costInfeasible = 50.0 // placement-candidate penalty for dt < 1
	costTooFar     = 20.0 // placement-candidate penalty for spatial > dt
)

// checkTally, nil outside tests, runs after every movement and rollback of
// the anneal loop; the incremental-cost tests install a check that the
// incrementally maintained cost tally agrees with a from-scratch recompute.
var checkTally func(*state, string)

// pairRef links a node to one same-level partner and the label-2 value of
// their dummy edge.
type pairRef struct {
	other int
	want  float64
}

// costTally is the incrementally maintained annealing objective: cost() and
// valid() read it in O(1) instead of rescanning placement and route arrays
// every movement. Every mutation goes through the place/unplace/setRoute/
// clearRoute mutators, which keep it exact (all terms are small integers, so
// the float objective is bit-identical to a full recompute in any order).
type costTally struct {
	unplaced int // nodes with pe < 0
	failed   int // unrouted edges whose endpoints are both placed
	routed   int // edges with a committed route
	hops     int // Σ (len(route) − 1) over routed edges
}

// state is one mapping attempt at a fixed II.
type state struct {
	ar  arch.Arch
	g   *dfg.Graph
	an  *dfg.Analysis
	lbl *labels.Labels
	cfg config
	rng *rand.Rand

	ii       int
	schedLen int
	diameter int

	rg     *rgraph.Graph
	occ    *rgraph.Occupancy
	router *rgraph.Router

	pe     []int   // -1 when unplaced
	time   []int   // valid when placed
	routes [][]int // per edge; nil when unrouted

	order    []int // node IDs in placement order
	orderIdx []int // node ID -> rank in order (precomputed once)
	partners [][]pairRef

	fuTab   []int32 // (cycle*numPE + pe) -> FU resource node, dense FUAt cache
	distTab []int16 // (a*numPE + b) -> spatial distance, dense SpatialDistance cache
	numPE   int
	// opOKTab[kind] mirrors fuTab's layout with AllowsOp(kind) per slot,
	// built lazily on the first candidate scan for that op kind.
	opOKTab [32][]bool

	tally costTally

	// Movement transaction: an undo log over pe/time/routes plus the armed
	// occupancy journal. rollbackTxn restores exactly the entries the
	// movement touched — O(touched), replacing the per-movement deep clone.
	txnActive  bool
	peLog      []peUndo
	routeLog   []routeUndo
	savedTally costTally

	// Scratch reused across movements (the annealer is single-goroutine).
	candBuf     []slot
	topBuf      []slot
	nbBuf       []nbRef
	prtBuf      []prtRef
	victimBuf   []int
	problemBuf  []int
	problemMark []bool
	pendingBuf  []int

	attempted, accepted int     // for σ = max{1, α·T − Acc}
	alpha               float64 // α of Algorithm 1 line 7
	initialPhase        bool    // partial mode: labels only apply here

	faultToken uint64 // per-request fault stream token (the annealer seed)
	faultErr   error  // first injected router fault; aborts the sweep

	// Portfolio hooks (portfolio.go), set by sweep.
	preSeeded  bool        // the chain already built the initial placement (greedy seed)
	randomSeed bool        // uniform-random initial placement: labels off during the seed
	shared     *portShared // cross-chain abandonment state; set on every annealing state
}

type peUndo struct {
	v, pe, t int32
}

type routeUndo struct {
	e    int32
	path []int
}

func newState(ar arch.Arch, g *dfg.Graph, an *dfg.Analysis, ii int,
	lbl *labels.Labels, cfg config, alpha float64, rng *rand.Rand) *state {

	st := &state{
		ar: ar, g: g, an: an, lbl: lbl, cfg: cfg, rng: rng, ii: ii, alpha: alpha,
		pe:   make([]int, g.NumNodes()),
		time: make([]int, g.NumNodes()),
	}
	for i := range st.pe {
		st.pe[i] = -1
	}
	st.routes = make([][]int, g.NumEdges())
	st.tally = costTally{unplaced: g.NumNodes()}

	st.diameter = 0
	n := ar.NumPEs()
	st.numPE = n
	for a := 0; a < n; a++ {
		if d := ar.SpatialDistance(0, a); d > st.diameter {
			st.diameter = d
		}
		if d := ar.SpatialDistance(n-1, a); d > st.diameter {
			st.diameter = d
		}
	}
	st.schedLen = an.CriticalPath + 2*ii + st.diameter + 2
	st.rg = ar.BuildRGraph(ii)
	st.occ = rgraph.NewOccupancy(st.rg)
	st.router = rgraph.NewRouter(st.rg, st.schedLen)

	// Dense (cycle, pe) -> FU table: FUAt is a map lookup, far too slow for
	// the candidate scan that runs it (window × PEs) times per placement.
	// Cycle-major so the per-cycle candidate scan walks it sequentially.
	st.fuTab = make([]int32, n*ii)
	for pe := 0; pe < n; pe++ {
		for c := 0; c < ii; c++ {
			st.fuTab[c*n+pe] = int32(st.rg.FUAt(pe, c))
		}
	}
	// Dense pairwise spatial distances: SpatialDistance is an interface call
	// (with coordinate math behind it) and the candidate cost evaluates it
	// for every (candidate, placed neighbor) pair.
	st.distTab = make([]int16, n*n)
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			st.distTab[a*n+b] = int16(ar.SpatialDistance(a, b))
		}
	}

	// Placement order: label 1 when enabled, ASAP otherwise, with
	// deterministic ID tie-break.
	st.order = make([]int, g.NumNodes())
	for i := range st.order {
		st.order[i] = i
	}
	key := func(v int) float64 {
		if cfg.useOrderLabel {
			return lbl.Order[v]
		}
		return float64(an.ASAP[v])
	}
	sort.SliceStable(st.order, func(i, j int) bool {
		a, b := st.order[i], st.order[j]
		if key(a) != key(b) {
			return key(a) < key(b)
		}
		return a < b
	})
	st.orderIdx = make([]int, g.NumNodes())
	for i, v := range st.order {
		st.orderIdx[v] = i
	}
	st.problemMark = make([]bool, g.NumNodes())

	// Build the partner lists in sorted pair order, not map-iteration order:
	// the per-candidate cost sums partner terms in list order, and float
	// addition is order-sensitive, so ranging over the map directly would
	// make the whole anneal nondeterministic for the label-using engines.
	st.partners = make([][]pairRef, g.NumNodes())
	pairs := make([]labels.Pair, 0, len(lbl.SameLevel))
	for p := range lbl.SameLevel {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].A != pairs[j].A {
			return pairs[i].A < pairs[j].A
		}
		return pairs[i].B < pairs[j].B
	})
	for _, p := range pairs {
		want := lbl.SameLevel[p]
		st.partners[p.A] = append(st.partners[p.A], pairRef{other: p.B, want: want})
		st.partners[p.B] = append(st.partners[p.B], pairRef{other: p.A, want: want})
	}
	return st
}

// fuAt is the dense FUAt: the FU resource node hosting (pe, absolute time t).
func (st *state) fuAt(pe, t int) int {
	return int(st.fuTab[(t%st.ii)*st.numPE+pe])
}

// anneal runs the movement loop; it returns success and the movement count.
//
//lisa:hotpath the SA move/route loop is the mapper's entire runtime; BENCH_mapper.json gates allocs per move
func (st *state) anneal(opts Options, start time.Time) (bool, int) {
	st.initialPhase = true
	if !st.preSeeded {
		st.placeAll()
	}
	st.routePending()
	st.initialPhase = false

	cur := st.cost()
	temp := opts.InitTemp
	moves := 0
	for moves < opts.MaxMoves {
		if st.faultErr != nil {
			// An injected router fault makes every further route attempt
			// moot; stop burning the movement budget.
			return false, moves
		}
		if st.valid() {
			return true, moves
		}
		if opts.TimeLimit > 0 && moves%64 == 0 && time.Since(start) > opts.TimeLimit {
			return false, moves
		}
		if moves%64 == 0 && st.shared.abandoned(st.ii) {
			// Another portfolio chain completed at a strictly lower II: this
			// attempt can no longer win the race, so stop spending its
			// budget.
			return false, moves
		}
		st.beginTxn()
		st.movement()
		if checkTally != nil {
			checkTally(st, "after movement")
		}
		moves++
		st.attempted++
		next := st.cost()
		accept := next <= cur
		if !accept && temp > 1e-9 {
			accept = st.rng.Float64() < math.Exp((cur-next)/temp)
		}
		if accept {
			cur = next
			st.accepted++
			st.commitTxn()
		} else {
			st.rollbackTxn()
			if checkTally != nil {
				checkTally(st, "after rollback")
			}
		}
		if moves%opts.MovesPerTemp == 0 {
			temp *= opts.Cool
		}
	}
	return st.valid(), moves
}

// useLabels reports whether label guidance applies to the current phase.
func (st *state) useLabels() bool {
	if st.randomSeed && st.initialPhase {
		// Random-variant portfolio chain: the initial placement is uniform
		// random (vanilla-SA style) regardless of engine; labels apply from
		// the first movement on.
		return false
	}
	if st.cfg.partial {
		return st.initialPhase
	}
	return true
}

// valid reports whether every node is placed and every edge routed.
func (st *state) valid() bool {
	return st.tally.unplaced == 0 && st.tally.routed == st.g.NumEdges()
}

// cost is the annealing objective, read from the incremental tally.
func (st *state) cost() float64 {
	return costUnplaced*float64(st.tally.unplaced) +
		costFailedEdge*float64(st.tally.failed) +
		float64(st.tally.hops)
}

// fill copies the state's complete mapping into res as an OK result at
// st.ii and returns its total routed hops.
func (st *state) fill(res *Result) int {
	res.OK = true
	res.II = st.ii
	res.PE = append([]int(nil), st.pe...)
	res.Time = append([]int(nil), st.time...)
	res.EdgeHops = make([]int, len(st.routes))
	res.Routes = make([][]int, len(st.routes))
	hops := 0
	for e, p := range st.routes {
		res.EdgeHops[e] = len(p) - 1
		res.Routes[e] = append([]int(nil), p...)
		hops += len(p) - 1
	}
	res.RoutingCost = st.routingCost()
	return hops
}

// routingCost counts intermediate resources consumed by all routes.
func (st *state) routingCost() int {
	total := 0
	for _, r := range st.routes {
		if n := len(r) - 2; n > 0 {
			total += n
		}
	}
	return total
}

// --- movement transaction -------------------------------------------------
//
// beginTxn arms the undo logs; commitTxn discards them; rollbackTxn replays
// them in reverse, restoring exactly the pe/time/routes entries and
// occupancy cells the movement touched. The deep-clone snapshot (save/
// restore in incremental_test.go) survives purely as the reference path for
// differential tests and the snapshot benchmarks.

func (st *state) beginTxn() {
	st.txnActive = true
	st.savedTally = st.tally
	st.peLog = st.peLog[:0]
	st.routeLog = st.routeLog[:0]
	st.occ.BeginJournal()
}

func (st *state) commitTxn() {
	st.txnActive = false
	st.occ.CommitJournal()
}

func (st *state) rollbackTxn() {
	st.txnActive = false
	for i := len(st.routeLog) - 1; i >= 0; i-- {
		u := st.routeLog[i]
		st.routes[u.e] = u.path
	}
	for i := len(st.peLog) - 1; i >= 0; i-- {
		u := st.peLog[i]
		st.pe[u.v] = int(u.pe)
		st.time[u.v] = int(u.t)
	}
	st.tally = st.savedTally
	st.occ.RollbackJournal()
}

// place records v's placement at (pe, t) and updates the cost tally. The
// caller has already occupied the FU via occ.PlaceOp.
func (st *state) place(v, pe, t int) {
	if st.txnActive {
		st.peLog = append(st.peLog, peUndo{v: int32(v), pe: int32(st.pe[v]), t: int32(st.time[v])})
	}
	st.pe[v] = pe
	st.time[v] = t
	st.tally.unplaced--
	st.failedDelta(v, +1)
}

// unplace clears v's placement. The caller releases the FU via occ.RemoveOp.
func (st *state) unplace(v int) {
	if st.txnActive {
		st.peLog = append(st.peLog, peUndo{v: int32(v), pe: int32(st.pe[v]), t: int32(st.time[v])})
	}
	st.failedDelta(v, -1)
	st.pe[v] = -1
	st.tally.unplaced++
}

// failedDelta adjusts the failed-edge count for v's unrouted incident edges
// whose other endpoint is placed — exactly the edges whose "failed" status
// flips when v's own placement status flips. Call with v placed on the side
// of the flip that has v placed (after place, before unplace).
func (st *state) failedDelta(v, d int) {
	for _, e := range st.g.InEdges(v) {
		if st.routes[e] == nil && st.pe[st.g.Edges[e].From] >= 0 {
			st.tally.failed += d
		}
	}
	for _, e := range st.g.OutEdges(v) {
		if st.routes[e] == nil && st.pe[st.g.Edges[e].To] >= 0 {
			st.tally.failed += d
		}
	}
}

// setRoute records e's committed path. Both endpoints are placed (routeEdge's
// invariant), so the edge leaves the failed set.
func (st *state) setRoute(e int, path []int) {
	if st.txnActive {
		st.routeLog = append(st.routeLog, routeUndo{e: int32(e), path: st.routes[e]})
	}
	st.routes[e] = path
	st.tally.routed++
	st.tally.hops += len(path) - 1
	st.tally.failed--
}

// clearRoute removes e's route (the caller has already uncommitted it from
// occupancy). With both endpoints still placed the edge re-enters the failed
// set.
func (st *state) clearRoute(e int) {
	r := st.routes[e]
	if r == nil {
		return
	}
	if st.txnActive {
		st.routeLog = append(st.routeLog, routeUndo{e: int32(e), path: r})
	}
	st.tally.routed--
	st.tally.hops -= len(r) - 1
	ed := st.g.Edges[e]
	if st.pe[ed.From] >= 0 && st.pe[ed.To] >= 0 {
		st.tally.failed++
	}
	st.routes[e] = nil
}

// fuOf returns the FU resource node of a placed DFG node.
func (st *state) fuOf(v int) int {
	return st.fuAt(st.pe[v], st.time[v])
}

// placeAll performs the initial full placement in schedule order.
func (st *state) placeAll() {
	for _, v := range st.order {
		if st.pe[v] < 0 {
			st.placeNode(v)
		}
	}
}

// unmapNode removes v's op and unroutes every incident edge (Algorithm 1
// line 2's "unmap one or more DFG nodes").
func (st *state) unmapNode(v int) {
	if st.pe[v] < 0 {
		return
	}
	for _, e := range st.g.InEdges(v) {
		st.unroute(e)
	}
	for _, e := range st.g.OutEdges(v) {
		st.unroute(e)
	}
	st.occ.RemoveOp(st.fuOf(v), v)
	st.unplace(v)
}

func (st *state) unroute(e int) {
	if st.routes[e] == nil {
		return
	}
	sig := rgraph.Signal(st.g.Edges[e].From)
	rgraph.Uncommit(st.occ, sig, st.routes[e])
	st.clearRoute(e)
}

// slot is one placement candidate.
type slot struct {
	pe, t int
	cost  float64
}

// timeBounds computes the candidate window for v from its placed neighbors.
func (st *state) timeBounds(v int) (lb, ub int) {
	lb = st.an.ASAP[v]
	ub = st.schedLen - 1
	for _, p := range st.g.Pred(v) {
		if st.pe[p] >= 0 && st.time[p]+1 > lb {
			lb = st.time[p] + 1
		}
	}
	for _, s := range st.g.Succ(v) {
		if st.pe[s] >= 0 && st.time[s]-1 < ub {
			ub = st.time[s] - 1
		}
	}
	if ub < lb {
		ub = st.schedLen - 1 // inconsistent neighbors; edges will fail and anneal away
	}
	// Bound the window so candidate enumeration stays cheap on big arrays.
	if w := lb + st.ii + st.diameter + 2; ub > w {
		ub = w
	}
	return lb, ub
}

// candidates enumerates the free, op-compatible slots for v into a scratch
// buffer reused across movements; the returned slice is valid until the next
// candidates call.
func (st *state) candidates(v int) []slot {
	lb, ub := st.timeBounds(v)
	op := uint8(st.g.Nodes[v].Op)
	allow := st.opAllow(op)
	out := st.candBuf[:0]
	for t := lb; t <= ub; t++ {
		base := (t % st.ii) * st.numPE
		row := st.fuTab[base:][:st.numPE]
		arow := allow[base:][:st.numPE]
		for pe, fu := range row {
			if !arow[pe] {
				continue
			}
			if !st.occ.CanPlaceOp(int(fu)) {
				continue
			}
			out = append(out, slot{pe: pe, t: t})
		}
	}
	st.candBuf = out
	return out
}

// opAllow returns the dense AllowsOp row for one op kind, building it on
// first use. The table is static per state (the resource graph never
// changes), so the per-slot mask test in the candidate scan becomes a bool
// load.
func (st *state) opAllow(op uint8) []bool {
	if tab := st.opOKTab[op]; tab != nil {
		return tab
	}
	tab := make([]bool, len(st.fuTab))
	for i, fu := range st.fuTab {
		tab[i] = st.rg.Nodes[fu].AllowsOp(op)
	}
	st.opOKTab[op] = tab
	return tab
}

// placeNode places v on a candidate slot. With label guidance the candidate
// cost combines labels 2, 3 and 4 (Algorithm 1 line 6) and the winner is
// drawn from a normal distribution over the cost ranking (lines 7-8);
// without guidance the slot is uniform random, as in vanilla SA.
func (st *state) placeNode(v int) {
	cands := st.candidates(v)
	if len(cands) == 0 {
		return // stays unplaced; the cost function punishes it
	}
	var pick slot
	if st.useLabels() && st.cfg.usePlacementLabels {
		st.buildNeighborRefs(v)
		for i := range cands {
			cands[i].cost = st.slotCost(v, cands[i])
		}
		sigma := math.Max(1, st.alphaSigma())
		idx := int(math.Abs(st.rng.NormFloat64()) * sigma)
		if idx >= len(cands) {
			idx = len(cands) - 1
		}
		pick = st.selectRank(cands, idx)
	} else {
		pick = cands[st.rng.Intn(len(cands))]
	}
	fu := st.fuAt(pick.pe, pick.t)
	if !st.occ.PlaceOp(fu, v) {
		return
	}
	st.place(v, pick.pe, pick.t)
}

// alphaSigma evaluates σ = α·T − Acc from Algorithm 1 line 7: a low
// acceptance rate widens the distribution, randomizing PE selection to escape
// an invalid mapping.
func (st *state) alphaSigma() float64 {
	return st.alpha*float64(st.attempted) - float64(st.accepted)
}

// selectRank returns the element that would sit at index k if cands were
// fully sorted by (cost, t, pe). That key is a total order — no two
// candidates share (pe, t) — so the answer is unique and independent of any
// sort algorithm. k is drawn from |N(0, σ)| and is almost always tiny, so a
// single partial-selection pass beats sorting the whole candidate list; the
// full sort remains as the fallback for the rare large k.
func (st *state) selectRank(cands []slot, k int) slot {
	if k >= len(cands) {
		k = len(cands) - 1
	}
	if k > 16 {
		slices.SortFunc(cands, func(a, b slot) int {
			switch {
			case a.cost < b.cost:
				return -1
			case a.cost > b.cost:
				return 1
			case a.t != b.t:
				return a.t - b.t
			default:
				return a.pe - b.pe
			}
		})
		return cands[k]
	}
	top := st.topBuf[:0] // k+1 smallest so far, sorted ascending
	for _, c := range cands {
		if len(top) == k+1 && !slotLess(c, top[k]) {
			continue
		}
		if len(top) < k+1 {
			top = append(top, c)
		} else {
			top[k] = c
		}
		for j := len(top) - 1; j > 0 && slotLess(top[j], top[j-1]); j-- {
			top[j], top[j-1] = top[j-1], top[j]
		}
	}
	st.topBuf = top
	return top[len(top)-1]
}

func slotLess(a, b slot) bool {
	if a.cost != b.cost {
		return a.cost < b.cost
	}
	if a.t != b.t {
		return a.t < b.t
	}
	return a.pe < b.pe
}

// nbRef is one placed edge-neighbor of the node being placed, flattened so
// the per-candidate cost loop touches no graph structure.
type nbRef struct {
	pe, time          int
	temporal, spatial float64
	out               bool // edge direction v -> other
}

// prtRef is one placed same-level partner.
type prtRef struct {
	pe   int
	want float64
}

// buildNeighborRefs flattens v's placed in-edge neighbors, out-edge
// neighbors and partners (in that order — float addition is order-sensitive
// and slotCost must sum exactly as the edge-list walk did) into scratch
// buffers consumed by slotCost.
func (st *state) buildNeighborRefs(v int) {
	nbs := st.nbBuf[:0]
	for _, e := range st.g.InEdges(v) {
		u := st.g.Edges[e].From
		if st.pe[u] < 0 {
			continue
		}
		nbs = append(nbs, nbRef{
			pe: st.pe[u], time: st.time[u],
			temporal: st.lbl.Temporal[e], spatial: st.lbl.Spatial[e],
		})
	}
	for _, e := range st.g.OutEdges(v) {
		w := st.g.Edges[e].To
		if st.pe[w] < 0 {
			continue
		}
		nbs = append(nbs, nbRef{
			pe: st.pe[w], time: st.time[w],
			temporal: st.lbl.Temporal[e], spatial: st.lbl.Spatial[e],
			out: true,
		})
	}
	st.nbBuf = nbs
	prts := st.prtBuf[:0]
	for _, pr := range st.partners[v] {
		if st.pe[pr.other] < 0 {
			continue
		}
		prts = append(prts, prtRef{pe: st.pe[pr.other], want: pr.want})
	}
	st.prtBuf = prts
}

// slotCost is the label-aware placement cost: the sum of differences between
// the distances a candidate implies and the distances the labels expect.
// It reads the neighbor buffers prepared by buildNeighborRefs for v.
func (st *state) slotCost(v int, s slot) float64 {
	c := 0.0
	drow := st.distTab[s.pe*st.numPE:][:st.numPE]
	for i := range st.nbBuf {
		nb := &st.nbBuf[i]
		var dt int
		if nb.out {
			dt = nb.time - s.t
		} else {
			dt = s.t - nb.time
		}
		sd := int(drow[nb.pe])
		if dt < 1 {
			c += costInfeasible
		} else {
			c += math.Abs(float64(dt) - nb.temporal)
			if sd > dt {
				c += costTooFar
			}
		}
		c += math.Abs(float64(sd) - nb.spatial)
	}
	for i := range st.prtBuf {
		c += math.Abs(float64(drow[st.prtBuf[i].pe]) - st.prtBuf[i].want)
	}
	if len(st.nbBuf) == 0 {
		// Anchor isolated placements near the schedule time label 1 expects.
		c += 0.3 * math.Abs(float64(s.t)-st.lbl.Order[v])
	}
	return c
}

// routePending routes every edge whose endpoints are placed, in routing
// priority order (Algorithm 1 lines 9-11: highest temporal-mapping-distance
// first) when enabled.
func (st *state) routePending() {
	pending := st.pendingBuf[:0]
	for e := range st.routes {
		if st.routes[e] != nil {
			continue
		}
		ed := st.g.Edges[e]
		if st.pe[ed.From] >= 0 && st.pe[ed.To] >= 0 {
			pending = append(pending, e)
		}
	}
	st.pendingBuf = pending
	if st.cfg.useRoutingPriority && st.useLabels() {
		// Stable insertion sort by descending label-4 value: identical order
		// to sort.SliceStable, with no per-movement closure allocation.
		for i := 1; i < len(pending); i++ {
			for j := i; j > 0 && st.lbl.Temporal[pending[j]] > st.lbl.Temporal[pending[j-1]]; j-- {
				pending[j], pending[j-1] = pending[j-1], pending[j]
			}
		}
	}
	for _, e := range pending {
		st.routeEdge(e)
	}
}

// routeEdge routes one edge with the 0-1 BFS router (Algorithm 1 line 11);
// the hop count is fixed by the endpoints' schedule times.
func (st *state) routeEdge(e int) bool {
	// Fault site router.route: an injected error fails the route and
	// aborts the sweep (Map surfaces st.faultErr), so the engine ladder can
	// substitute a fallback; disabled, this is one atomic load.
	if err := fault.Inject(fault.RouterRoute, st.faultToken); err != nil {
		if st.faultErr == nil {
			st.faultErr = err
		}
		return false
	}
	ed := st.g.Edges[e]
	hops := st.time[ed.To] - st.time[ed.From]
	if hops < 1 {
		return false
	}
	sig := rgraph.Signal(ed.From)
	path, _, ok := st.router.Route(st.occ, sig, st.fuOf(ed.From), st.fuOf(ed.To), hops)
	if !ok {
		return false
	}
	rgraph.Commit(st.occ, sig, path)
	st.setRoute(e, path)
	return true
}

// movement is one unmap/re-place/re-route step.
func (st *state) movement() {
	victims := st.pickVictims()
	for _, v := range victims {
		st.unmapNode(v)
	}
	st.sortByPlacementOrder(victims)
	for _, v := range victims {
		if st.pe[v] < 0 {
			st.placeNode(v)
		}
	}
	st.routePending()
}

// sortByPlacementOrder orders victims by their precomputed rank in the
// global schedule order (orderIdx, built once in newState — previously a
// map[int]int rebuilt on every movement). Ranks are distinct, so insertion
// sort yields the unique order.
func (st *state) sortByPlacementOrder(victims []int) {
	for i := 1; i < len(victims); i++ {
		for j := i; j > 0 && st.orderIdx[victims[j]] < st.orderIdx[victims[j-1]]; j-- {
			victims[j], victims[j-1] = victims[j-1], victims[j]
		}
	}
}

// pickVictims chooses the nodes to unmap: problem nodes (unplaced, or
// endpoints of failed/infeasible edges) first, plus an occasional random
// placed node to shake the mapping out of local minima. The pool is
// collected via a reusable mark array and read out in ascending node ID —
// the same sorted order the previous map+sort built, without the per-move
// allocations.
func (st *state) pickVictims() []int {
	mark := st.problemMark
	for v, p := range st.pe {
		if p < 0 {
			mark[v] = true
		}
	}
	for e, r := range st.routes {
		if r != nil {
			continue
		}
		ed := st.g.Edges[e]
		if st.pe[ed.From] >= 0 && st.pe[ed.To] >= 0 {
			mark[ed.From] = true
			mark[ed.To] = true
		}
	}
	pool := st.problemBuf[:0]
	for v := range mark {
		if mark[v] {
			pool = append(pool, v)
			mark[v] = false
		}
	}
	st.problemBuf = pool

	victims := st.victimBuf[:0]
	if len(pool) > 0 {
		// One or two problem nodes.
		victims = append(victims, pool[st.rng.Intn(len(pool))])
		if len(pool) > 1 && st.rng.Float64() < 0.5 {
			w := pool[st.rng.Intn(len(pool))]
			if w != victims[0] {
				victims = append(victims, w)
			}
		}
	}
	// Occasionally also displace a random placed node to free resources.
	if len(victims) == 0 || st.rng.Float64() < 0.35 {
		v := st.rng.Intn(st.g.NumNodes())
		dup := false
		for _, w := range victims {
			if w == v {
				dup = true
			}
		}
		if !dup && st.pe[v] >= 0 {
			victims = append(victims, v)
		}
	}
	st.victimBuf = victims
	return victims
}
