package gnn

import (
	"sort"

	"github.com/lisa-go/lisa/internal/attr"
	"github.com/lisa-go/lisa/internal/labels"
)

// predictTaped is the reference implementation of Predict on the taped
// engine: the ground truth the differential tests and the inference
// benchmark compare the fused path against. The fused Predict must
// reproduce its output bit for bit.
func (m *Model) predictTaped(set *attr.Set) *labels.Labels {
	g := set.An.G
	out := labels.NewZero(g)

	if g.NumNodes() > 0 {
		na, asap := m.scaledNodeInputs(set)
		pred := m.Order.Forward(na, asap, undirectedNeighbors(set))
		for v := 0; v < g.NumNodes(); v++ {
			out.Order[v] = clampMin(pred.At(v, 0), 0)
		}
	}
	if g.NumEdges() > 0 {
		ea := m.scaledMatrix(set.Edge, m.EdgeScale)
		sp := m.Spatial.Forward(ea, incidentEdges(set))
		tp := m.Temporal.Forward(ea)
		for e := 0; e < g.NumEdges(); e++ {
			out.Spatial[e] = clampMin(sp.At(e, 0), 0)
			out.Temporal[e] = clampMin(tp.At(e, 0), 1)
		}
	}
	if len(set.DummyPairs) > 0 {
		da := m.scaledMatrix(set.Dummy, m.DummyScale)
		sl := m.Same.Forward(da)
		for i, p := range set.DummyPairs {
			out.SameLevel[p] = clampMin(sl.At(i, 0), 0)
		}
	}
	return out
}

// naiveIncidentEdges is the map-per-edge construction of the e(v) sets of
// eq. (5) that incidentEdges replaced, kept as its oracle.
func naiveIncidentEdges(set *attr.Set) [][]int {
	g := set.An.G
	out := make([][]int, g.NumEdges())
	for i, e := range g.Edges {
		seen := map[int]bool{}
		for _, v := range []int{e.From, e.To} {
			for _, ie := range g.InEdges(v) {
				seen[ie] = true
			}
			for _, oe := range g.OutEdges(v) {
				seen[oe] = true
			}
		}
		//lisa:vet-ok maprange the keys are sorted right below
		for ie := range seen {
			out[i] = append(out[i], ie)
		}
		sort.Ints(out[i])
	}
	return out
}
