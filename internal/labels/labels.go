// Package labels implements the paper's central abstraction (Table I): four
// per-node / per-edge quantities that summarize how a DFG *should* be mapped
// onto a particular accelerator —
//
//	label 1  schedule order             (node)        guides placement order
//	label 2  same-level nodes association (dummy edge) guides placement
//	label 3  spatial mapping distance   (edge)        guides placement+routing
//	label 4  temporal mapping distance  (edge)        guides routing priority
//
// The package provides label initialization (§V-B), extraction from a
// concrete mapping, candidate selection (best II, routing cost within 1.15×
// of the best), and the training-set filter metric e = O + σ·N (§V-C).
package labels

import (
	"fmt"
	"math"

	"github.com/lisa-go/lisa/internal/dfg"
)

// Pair canonically orders a same-level node pair (A < B).
type Pair struct{ A, B int }

// MakePair builds a canonical pair.
func MakePair(a, b int) Pair {
	if a > b {
		a, b = b, a
	}
	return Pair{A: a, B: b}
}

// Labels carries the four label sets for one DFG on one accelerator.
type Labels struct {
	// Order is label 1, indexed by node ID. Lower values are scheduled
	// (placed) earlier.
	Order []float64
	// SameLevel is label 2: the expected spatial distance between each
	// same-level (dummy-edge) pair.
	SameLevel map[Pair]float64
	// Spatial is label 3, indexed by edge ID: expected spatial (Manhattan)
	// distance between producer and consumer PEs.
	Spatial []float64
	// Temporal is label 4, indexed by edge ID: expected cycle distance
	// between producer and consumer, i.e. the routing resources the edge
	// needs.
	Temporal []float64
}

// NewZero allocates a label set shaped for g.
func NewZero(g *dfg.Graph) *Labels {
	return &Labels{
		Order:     make([]float64, g.NumNodes()),
		SameLevel: make(map[Pair]float64),
		Spatial:   make([]float64, g.NumEdges()),
		Temporal:  make([]float64, g.NumEdges()),
	}
}

// Clone deep-copies l.
func (l *Labels) Clone() *Labels {
	c := &Labels{
		Order:     append([]float64(nil), l.Order...),
		Spatial:   append([]float64(nil), l.Spatial...),
		Temporal:  append([]float64(nil), l.Temporal...),
		SameLevel: make(map[Pair]float64, len(l.SameLevel)),
	}
	//lisa:vet-ok maprange map-to-map copy; the clone's content is independent of iteration order
	for k, v := range l.SameLevel {
		c.SameLevel[k] = v
	}
	return c
}

// Initial returns the label initialization of §V-B: schedule order = ASAP,
// same-level association = average of the shortest distances from the pair to
// their common ancestor/descendant, spatial distance = 0, temporal distance
// = 1.
func Initial(an *dfg.Analysis) *Labels {
	g := an.G
	l := NewZero(g)
	for v := range g.Nodes {
		l.Order[v] = float64(an.ASAP[v])
	}
	hops := dfg.NewHops(an)
	for _, p := range an.SameLevelPairs() {
		sum, cnt := 0.0, 0
		if _, d, ok := hops.ClosestCommonAncestor(p.A, p.B); ok {
			sum += float64(d)
			cnt++
		}
		if _, d, ok := hops.ClosestCommonDescendant(p.A, p.B); ok {
			sum += float64(d)
			cnt++
		}
		if cnt > 0 {
			l.SameLevel[MakePair(p.A, p.B)] = sum / float64(cnt)
		}
	}
	for e := range l.Temporal {
		l.Temporal[e] = 1
	}
	return l
}

// MappingStats is the architecture-agnostic view of one concrete mapping that
// label extraction needs. The mapper fills it in; keeping it here avoids a
// labels→mapper dependency cycle.
type MappingStats struct {
	II          int
	NodePE      []int // PE index per DFG node
	NodeTime    []int // absolute schedule cycle per DFG node
	EdgeHops    []int // route length in cycles per DFG edge
	RoutingCost int   // total routing resources consumed
	// SpatialDist computes the accelerator's label-space distance.
	SpatialDist func(peA, peB int) int
}

// Extract derives a label set from a mapping (§V-B "We extract label values
// from the mapping result"): the schedule order is the node's cycle
// normalized to [0, critical-path length]; labels 2 and 3 are measured
// spatial distances; label 4 is the measured route length.
func Extract(an *dfg.Analysis, m *MappingStats) *Labels {
	g := an.G
	l := NewZero(g)

	maxTime := 1
	for _, t := range m.NodeTime {
		if t > maxTime {
			maxTime = t
		}
	}
	cp := float64(an.CriticalPath)
	if cp == 0 {
		cp = 1
	}
	for v := range g.Nodes {
		l.Order[v] = float64(m.NodeTime[v]) * cp / float64(maxTime)
	}
	for _, p := range an.SameLevelPairs() {
		l.SameLevel[MakePair(p.A, p.B)] =
			float64(m.SpatialDist(m.NodePE[p.A], m.NodePE[p.B]))
	}
	for i, e := range g.Edges {
		l.Spatial[i] = float64(m.SpatialDist(m.NodePE[e.From], m.NodePE[e.To]))
		l.Temporal[i] = float64(m.EdgeHops[i])
	}
	return l
}

// Candidate pairs an extracted label set with the quality of the mapping it
// came from.
type Candidate struct {
	Labels      *Labels
	II          int
	RoutingCost int
}

// RoutingCostSlack is the paper's candidate-selection threshold: a label
// whose mapping uses at most 1.15× the routing cost of the best mapping at
// the best II remains a candidate.
const RoutingCostSlack = 1.15

// SelectAndCombine applies the two-round selection of §V-B: keep candidates
// at the minimum II, then keep those within RoutingCostSlack of the lowest
// routing cost, and return the element-wise average of the survivors along
// with how many survived. It returns nil when cands is empty.
func SelectAndCombine(cands []Candidate) (*Labels, int) {
	if len(cands) == 0 {
		return nil, 0
	}
	bestII := cands[0].II
	for _, c := range cands {
		if c.II < bestII {
			bestII = c.II
		}
	}
	var atBest []Candidate
	for _, c := range cands {
		if c.II == bestII {
			atBest = append(atBest, c)
		}
	}
	minCost := atBest[0].RoutingCost
	for _, c := range atBest {
		if c.RoutingCost < minCost {
			minCost = c.RoutingCost
		}
	}
	var final []Candidate
	for _, c := range atBest {
		if float64(c.RoutingCost) <= RoutingCostSlack*float64(minCost) {
			final = append(final, c)
		}
	}
	return average(final), len(final)
}

func average(cands []Candidate) *Labels {
	out := cands[0].Labels.Clone()
	n := float64(len(cands))
	if len(cands) == 1 {
		return out
	}
	for _, c := range cands[1:] {
		for v := range out.Order {
			out.Order[v] += c.Labels.Order[v]
		}
		for i := range out.Spatial {
			out.Spatial[i] += c.Labels.Spatial[i]
			out.Temporal[i] += c.Labels.Temporal[i]
		}
		//lisa:vet-ok maprange per-key accumulation: each key's sum only sees its own candidates, in slice order
		for k, v := range c.Labels.SameLevel {
			out.SameLevel[k] += v
		}
	}
	for v := range out.Order {
		out.Order[v] /= n
	}
	for i := range out.Spatial {
		out.Spatial[i] /= n
		out.Temporal[i] /= n
	}
	//lisa:vet-ok maprange per-key division; no cross-key interaction
	for k := range out.SameLevel {
		out.SameLevel[k] /= n
	}
	return out
}

// FilterConfig parameterizes the §V-C label filter e = O + σ·N.
type FilterConfig struct {
	// Sigma weights the candidate count N.
	Sigma float64
	// MinScore is the admission threshold for e.
	MinScore float64
}

// DefaultFilterConfig matches the repository-wide training defaults.
func DefaultFilterConfig() FilterConfig {
	return FilterConfig{Sigma: 0.1, MinScore: 0.5}
}

// Admit evaluates the filter metric for a DFG whose best mapping achieved
// achievedII against the theoretical minimum minII with n surviving
// candidates. O is the closeness to the theoretical minimal execution time
// (1 when II == MII). Per the paper, hitting the minimum II admits the label
// even with a single candidate.
func (f FilterConfig) Admit(achievedII, minII, n int) (score float64, ok bool) {
	if n == 0 || achievedII <= 0 {
		return 0, false
	}
	o := float64(minII) / float64(achievedII)
	score = o + f.Sigma*float64(n)
	if achievedII == minII {
		return score, true
	}
	return score, score >= f.MinScore
}

// CheckFinite reports the first label that is NaN or ±Inf: order, then
// spatial, then temporal by index, then the least same-level pair.
func (l *Labels) CheckFinite() error {
	for _, set := range []struct {
		name string
		vals []float64
	}{{"order", l.Order}, {"spatial", l.Spatial}, {"temporal", l.Temporal}} {
		for i, v := range set.vals {
			if !finite(v) {
				return fmt.Errorf("labels: %s[%d] = %v is not finite", set.name, i, v)
			}
		}
	}
	bad, found := Pair{}, false
	//lisa:vet-ok maprange keeps the least non-finite pair, so the order cannot change the error
	for p, v := range l.SameLevel {
		if !finite(v) && (!found || p.A < bad.A || p.A == bad.A && p.B < bad.B) {
			bad, found = p, true
		}
	}
	if found {
		return fmt.Errorf("labels: sameLevel[%d,%d] = %v is not finite", bad.A, bad.B, l.SameLevel[bad])
	}
	return nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Validate sanity-checks a label set against its DFG.
func (l *Labels) Validate(g *dfg.Graph) error {
	if len(l.Order) != g.NumNodes() {
		return fmt.Errorf("labels: Order size %d != nodes %d", len(l.Order), g.NumNodes())
	}
	if len(l.Spatial) != g.NumEdges() || len(l.Temporal) != g.NumEdges() {
		return fmt.Errorf("labels: edge label sizes %d/%d != edges %d",
			len(l.Spatial), len(l.Temporal), g.NumEdges())
	}
	for i, t := range l.Temporal {
		if t < 0 || math.IsNaN(t) {
			return fmt.Errorf("labels: temporal[%d] = %v", i, t)
		}
	}
	for v, o := range l.Order {
		if math.IsNaN(o) {
			return fmt.Errorf("labels: order[%d] is NaN", v)
		}
	}
	return nil
}
