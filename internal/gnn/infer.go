// Fused no-tape inference. Training runs the four networks through the
// autodiff tape (model.go Forward methods); serving label predictions only
// needs the forward values, so this file evaluates the same math on
// tensor.Infer — no Grad buffers, no backward closures, arena-recycled
// intermediates — one DFG per pass. Every op processes rows in the same
// order as its taped counterpart, so Predict is bit-identical to the taped
// reference (predictTaped, kept in the tests as their oracle); the
// differential tests in infer_test.go enforce it.
//
// A DFG is the unit of parallelism: a caller holding many DFGs fans Predict
// out across cores, one DFG per task (lisa-serve's /v1/labels does).
// Stacking many DFGs into one block-diagonal pass does not pay: measured on
// the same DFGs it was slower per DFG than a loop of Predict, and it keeps
// a whole batch on one core (DESIGN.md). PredictBatch is that loop.
package gnn

import (
	"fmt"
	"sync"

	"github.com/lisa-go/lisa/internal/attr"
	"github.com/lisa-go/lisa/internal/labels"
	"github.com/lisa-go/lisa/internal/tensor"
)

// inferPool recycles inference arenas across Predict calls and goroutines:
// a Model is shared by concurrent requests (the registry hands every caller
// the same instance), while a tensor.Infer is single-threaded.
var inferPool = sync.Pool{New: func() any { return tensor.NewInfer() }}

// Predict runs all four networks on a DFG's attribute set and assembles a
// label set for the mapper. The error is non-nil only when the model's
// scale vectors do not match the current attribute dimensionality (version
// skew after an attribute-set change, see CheckScales), which would
// otherwise mix scaled and unscaled columns into one matmul and predict
// garbage. Safe for concurrent use.
//
//lisa:hotpath one call per DFG of every uncached /v1/map and /v1/labels request; the fused pass exists to kill per-node allocations
func (m *Model) Predict(set *attr.Set) (*labels.Labels, error) {
	if err := m.CheckScales(); err != nil {
		return nil, err
	}
	out := labels.NewZero(set.An.G)
	in := inferPool.Get().(*tensor.Infer)
	defer func() {
		in.Reset()
		inferPool.Put(in)
	}()

	m.predictOrder(in, set, out)
	in.Reset() // each network starts from an empty arena: peak memory stays one network wide
	m.predictEdges(in, set, out)
	in.Reset()
	m.predictSameLevel(in, set, out)
	return out, nil
}

// PredictBatch predicts each set in turn with Predict. Callers that want the
// sets predicted in parallel fan Predict out themselves.
func (m *Model) PredictBatch(sets []*attr.Set) ([]*labels.Labels, error) {
	out := make([]*labels.Labels, len(sets))
	for i, set := range sets {
		var err error
		if out[i], err = m.Predict(set); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// predictOrder evaluates the label-1 (schedule order) network over the
// DFG's nodes.
func (m *Model) predictOrder(in *tensor.Infer, set *attr.Set, out *labels.Labels) {
	n := set.An.G.NumNodes()
	if n == 0 {
		return
	}
	na := in.NewMat(n, attr.NodeAttrDim)
	asap := in.NewMat(n, 1)
	asapScale := m.ASAPScale
	if asapScale == 0 {
		asapScale = 1
	}
	for v := 0; v < n; v++ {
		fillScaledRow(na, v, set.Node[v], m.NodeScale)
		asap.Set(v, 0, float64(set.An.ASAP[v])/asapScale)
	}
	pred := m.Order.forwardInfer(in, na, asap, undirectedNeighbors(set))
	for v := range out.Order {
		out.Order[v] = clampMin(pred.At(v, 0), 0)
	}
}

// predictEdges evaluates the label-3 (spatial) and label-4 (temporal)
// networks over the DFG's edges.
func (m *Model) predictEdges(in *tensor.Infer, set *attr.Set, out *labels.Labels) {
	if len(set.Edge) == 0 {
		return
	}
	ea := in.NewMat(len(set.Edge), attr.EdgeAttrDim)
	for e, row := range set.Edge {
		fillScaledRow(ea, e, row, m.EdgeScale)
	}
	sp := m.Spatial.forwardInfer(in, ea, incidentEdges(set))
	tp := m.Temporal.forwardInfer(in, ea)
	for e := range out.Spatial {
		out.Spatial[e] = clampMin(sp.At(e, 0), 0)
		out.Temporal[e] = clampMin(tp.At(e, 0), 1)
	}
}

// predictSameLevel evaluates the label-2 (same-level association) network
// over the DFG's dummy pairs.
func (m *Model) predictSameLevel(in *tensor.Infer, set *attr.Set, out *labels.Labels) {
	if len(set.DummyPairs) == 0 {
		return
	}
	da := in.NewMat(len(set.DummyPairs), attr.DummyAttrDim)
	for i, row := range set.Dummy {
		fillScaledRow(da, i, row, m.DummyScale)
	}
	sl := m.Same.forwardInfer(in, da)
	for i, p := range set.DummyPairs {
		out.SameLevel[p] = clampMin(sl.At(i, 0), 0)
	}
}

// fillScaledRow writes one attribute row into an input matrix, dividing by
// the per-column scale exactly like scaledMatrix. A width mismatch is a
// shape bug (CheckScales already rejected model-side skew, so this guards
// the attribute rows themselves) and fails loudly.
func fillScaledRow(t *tensor.Tensor, row int, vals, scale []float64) {
	if len(vals) != t.Cols {
		panic(fmt.Sprintf("gnn: attribute row has %d columns, want %d", len(vals), t.Cols))
	}
	for j, v := range vals {
		if scale != nil && scale[j] != 0 {
			v /= scale[j]
		}
		t.Set(row, j, v)
	}
}

// forwardInfer mirrors Label1Net.Forward on the no-tape engine.
func (n *Label1Net) forwardInfer(in *tensor.Infer, nodeAttrs, asap *tensor.Tensor, neighbors [][]int) *tensor.Tensor {
	m := in.MatMul(nodeAttrs, n.W0) // m⁰ = W0 · Attributes(v)
	h := in.MatMul(asap, n.Wh)      // h⁰ embeds the ASAP value
	for t := 0; t < 4; t++ {
		agg := in.Pool(m, neighbors, tensor.AggMean, tensor.AggMax, tensor.AggMin)
		m = in.MatMul(agg, n.W1[t])                              // eq. (1)
		h = in.MatMul(in.Add(in.MatMul(h, n.W3[t]), m), n.W2[t]) // eq. (2)
		h = in.ReLU(h)
	}
	return in.MatMul(h, n.Out)
}

// forwardInfer mirrors MLP.Forward on the no-tape engine.
func (m *MLP) forwardInfer(in *tensor.Infer, x *tensor.Tensor) *tensor.Tensor {
	return in.MatMul(in.ReLU(in.MatMul(x, m.W1)), m.W2)
}

// forwardInfer mirrors Label3Net.Forward on the no-tape engine.
func (n *Label3Net) forwardInfer(in *tensor.Infer, edgeAttrs *tensor.Tensor, incident [][]int) *tensor.Tensor {
	h1 := in.MatMul(edgeAttrs, n.W1) // eq. (4)
	// The reciprocal of the concatenated pools is the concatenation of the
	// taped path's per-pool reciprocals.
	pools := in.Pool(h1, incident, tensor.AggMean, tensor.AggSum, tensor.AggMax, tensor.AggMin)
	nu := in.MatMul(in.Reciprocal(pools, 1e-6), n.Wn)
	// eq. (6): h² = W2·h¹ + ν ⊙ W3·h¹.
	h2 := in.Add(in.MatMul(h1, n.W2), in.Mul(nu, in.MatMul(h1, n.W3)))
	return in.MatMul(in.ReLU(h2), n.Wo)
}
