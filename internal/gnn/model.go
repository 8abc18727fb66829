// Package gnn implements the four per-label graph neural networks of the
// paper's §IV-B on top of the internal/tensor autodiff engine:
//
//	label 1 (schedule order):   four message-passing layers, each evaluating
//	                            eqs. (1)-(2): m' = W1·[mean,max,min of
//	                            neighbor m]; h' = W2(W3·h + m').
//	label 2 (same-level assoc): an MLP over the dummy-edge attributes,
//	                            eq. (3), hidden width = attribute count.
//	label 3 (spatial distance): eqs. (4)-(6): a convolution of the edge
//	                            attributes, a normalization vector ν built
//	                            from reciprocal mean/sum/max/min aggregates
//	                            over the edges incident to the endpoints, and
//	                            h² = W2·h¹ + ν ⊙ W3·h¹.
//	label 4 (temporal distance): an MLP over the edge attributes, eq. (7).
//
// One Model bundles the four networks for a single accelerator; retraining a
// Model on a new accelerator's label data is what makes LISA portable.
package gnn

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"github.com/lisa-go/lisa/internal/attr"
	"github.com/lisa-go/lisa/internal/tensor"
)

// hidden1 is the hidden width of the schedule-order network.
const hidden1 = 8

// Label1Net is the schedule-order network (eqs. 1-2, four layers).
type Label1Net struct {
	W0 *tensor.Tensor // attribute embedding: NodeAttrDim -> H
	Wh *tensor.Tensor // ASAP embedding: 1 -> H
	// Per layer: W1 aggregates [mean,max,min] (3H -> H); W3 transforms h
	// (H -> H); W2 combines (H -> H).
	W1, W2, W3 [4]*tensor.Tensor
	Out        *tensor.Tensor // H -> 1
}

// NewLabel1Net initializes the schedule-order network.
func NewLabel1Net(rng *rand.Rand) *Label1Net {
	n := &Label1Net{
		W0:  tensor.Param(rng, attr.NodeAttrDim, hidden1),
		Wh:  tensor.Param(rng, 1, hidden1),
		Out: tensor.Param(rng, hidden1, 1),
	}
	for t := 0; t < 4; t++ {
		n.W1[t] = tensor.Param(rng, 3*hidden1, hidden1)
		n.W2[t] = tensor.Param(rng, hidden1, hidden1)
		n.W3[t] = tensor.Param(rng, hidden1, hidden1)
	}
	return n
}

// Params lists the trainable tensors.
func (n *Label1Net) Params() []*tensor.Tensor {
	out := []*tensor.Tensor{n.W0, n.Wh, n.Out}
	for t := 0; t < 4; t++ {
		out = append(out, n.W1[t], n.W2[t], n.W3[t])
	}
	return out
}

// Forward predicts one schedule-order value per node. nodeAttrs is the
// scaled [n × NodeAttrDim] attribute matrix, asap the scaled [n × 1] ASAP
// column, and neighbors the undirected adjacency sets.
func (n *Label1Net) Forward(nodeAttrs, asap *tensor.Tensor, neighbors [][]int) *tensor.Tensor {
	m := tensor.MatMul(nodeAttrs, n.W0) // m⁰ = W0 · Attributes(v)
	h := tensor.MatMul(asap, n.Wh)      // h⁰ embeds the ASAP value
	for t := 0; t < 4; t++ {
		agg := tensor.ConcatCols(
			tensor.Aggregate(m, neighbors, tensor.AggMean),
			tensor.Aggregate(m, neighbors, tensor.AggMax),
			tensor.Aggregate(m, neighbors, tensor.AggMin),
		)
		m = tensor.MatMul(agg, n.W1[t])                                      // eq. (1)
		h = tensor.MatMul(tensor.Add(tensor.MatMul(h, n.W3[t]), m), n.W2[t]) // eq. (2)
		h = tensor.ReLU(h)
	}
	return tensor.MatMul(h, n.Out)
}

// MLP is the two-layer perceptron used by the label-2 and label-4 networks
// (eqs. 3 and 7): hidden channels equal the input attribute count, ReLU
// activation.
type MLP struct {
	W1, W2 *tensor.Tensor
}

// NewMLP builds an MLP for the given input width.
func NewMLP(rng *rand.Rand, in int) *MLP {
	return &MLP{
		W1: tensor.Param(rng, in, in),
		W2: tensor.Param(rng, in, 1),
	}
}

// Params lists the trainable tensors.
func (m *MLP) Params() []*tensor.Tensor { return []*tensor.Tensor{m.W1, m.W2} }

// Forward maps [k × in] attribute rows to [k × 1] predictions.
func (m *MLP) Forward(x *tensor.Tensor) *tensor.Tensor {
	return tensor.MatMul(tensor.ReLU(tensor.MatMul(x, m.W1)), m.W2)
}

// Label3Net is the spatial-mapping-distance network (eqs. 4-6).
type Label3Net struct {
	W1 *tensor.Tensor // edge attrs -> H (eq. 4)
	Wn *tensor.Tensor // 4H reciprocal aggregates -> H (builds ν, eq. 5)
	W2 *tensor.Tensor // H -> H (eq. 6)
	W3 *tensor.Tensor // H -> H (eq. 6)
	Wo *tensor.Tensor // H -> 1
}

// hidden3 is the hidden width of the spatial-distance network, equal to the
// edge attribute count as in the paper.
const hidden3 = attr.EdgeAttrDim

// NewLabel3Net initializes the spatial-distance network.
func NewLabel3Net(rng *rand.Rand) *Label3Net {
	return &Label3Net{
		W1: tensor.Param(rng, attr.EdgeAttrDim, hidden3),
		Wn: tensor.Param(rng, 4*hidden3, hidden3),
		W2: tensor.Param(rng, hidden3, hidden3),
		W3: tensor.Param(rng, hidden3, hidden3),
		Wo: tensor.Param(rng, hidden3, 1),
	}
}

// Params lists the trainable tensors.
func (n *Label3Net) Params() []*tensor.Tensor {
	return []*tensor.Tensor{n.W1, n.Wn, n.W2, n.W3, n.Wo}
}

// Forward predicts one spatial distance per edge. edgeAttrs is [m ×
// EdgeAttrDim]; incident[i] lists the edge indexes incident to edge i's
// endpoints (the e(v) of eq. 5).
func (n *Label3Net) Forward(edgeAttrs *tensor.Tensor, incident [][]int) *tensor.Tensor {
	h1 := tensor.MatMul(edgeAttrs, n.W1) // eq. (4)
	// eq. (5): ν from reciprocal mean/sum/max/min aggregates over e(v).
	recip := func(kind tensor.AggKind) *tensor.Tensor {
		return tensor.Reciprocal(tensor.Aggregate(h1, incident, kind), 1e-6)
	}
	nu := tensor.MatMul(tensor.ConcatCols(
		recip(tensor.AggMean), recip(tensor.AggSum),
		recip(tensor.AggMax), recip(tensor.AggMin),
	), n.Wn)
	// eq. (6): h² = W2·h¹ + ν ⊙ W3·h¹.
	h2 := tensor.Add(tensor.MatMul(h1, n.W2), tensor.Mul(nu, tensor.MatMul(h1, n.W3)))
	return tensor.MatMul(tensor.ReLU(h2), n.Wo)
}

// Model bundles the four per-label networks trained for one accelerator.
type Model struct {
	ArchName string

	Order    *Label1Net
	Same     *MLP // label 2 over dummy-edge attributes
	Spatial  *Label3Net
	Temporal *MLP // label 4 over edge attributes

	// Column scalers (computed from the training set) keep the raw count
	// attributes in a well-conditioned range.
	NodeScale  []float64
	EdgeScale  []float64
	DummyScale []float64
	ASAPScale  float64
}

// NewModel initializes an untrained model.
func NewModel(rng *rand.Rand, archName string) *Model {
	return &Model{
		ArchName: archName,
		Order:    NewLabel1Net(rng),
		Same:     NewMLP(rng, attr.DummyAttrDim),
		Spatial:  NewLabel3Net(rng),
		Temporal: NewMLP(rng, attr.EdgeAttrDim),
	}
}

// CheckScales validates the model's column scalers against the current
// attribute dimensionality. Empty vectors mean "unscaled" (an untrained
// model) and are valid; any other length must match exactly — a serialized
// model whose scale vectors predate an attribute-set change must be
// retrained, not silently half-scaled.
func (m *Model) CheckScales() error {
	if err := m.checkScale("node", len(m.NodeScale), attr.NodeAttrDim); err != nil {
		return err
	}
	if err := m.checkScale("edge", len(m.EdgeScale), attr.EdgeAttrDim); err != nil {
		return err
	}
	return m.checkScale("dummy", len(m.DummyScale), attr.DummyAttrDim)
}

// checkScale validates one scale vector's width (CheckScales runs on the
// serving hot path, so the check is literal-free).
func (m *Model) checkScale(name string, got, want int) error {
	if got != 0 && got != want {
		return fmt.Errorf("gnn: model %q %s scale has %d columns, want %d (attribute-set version skew; retrain the model)",
			m.ArchName, name, got, want)
	}
	return nil
}

// CheckFinite reports the first weight or scale that is NaN or ±Inf, in
// sorted weight-name order, then the scale vectors. A model that fails it
// predicts non-finite labels, so the registry never serves one.
// Load needs no such check: JSON cannot carry a non-finite number.
func (m *Model) CheckFinite() error {
	w := m.namedWeights()
	names := make([]string, 0, len(w))
	for name := range w {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := checkFinite(m.ArchName, name, w[name].Data); err != nil {
			return err
		}
	}
	for _, sv := range []struct {
		name string
		vals []float64
	}{
		{"nodeScale", m.NodeScale}, {"edgeScale", m.EdgeScale}, {"dummyScale", m.DummyScale},
		{"asapScale", []float64{m.ASAPScale}},
	} {
		if err := checkFinite(m.ArchName, sv.name, sv.vals); err != nil {
			return err
		}
	}
	return nil
}

func checkFinite(archName, name string, vals []float64) error {
	for i, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("gnn: model %q %s[%d] = %v is not finite", archName, name, i, v)
		}
	}
	return nil
}

func clampMin(x, lo float64) float64 {
	if x < lo {
		return lo
	}
	return x
}

// undirectedNeighbors returns each node's parents then children — the
// neighbor sets the schedule-order network aggregates over (eqs. 1-2). Each
// edge adds one entry to each endpoint's set, so one backing array of
// twice the edge count holds every set. Training and inference share it.
func undirectedNeighbors(set *attr.Set) [][]int {
	g := set.An.G
	nb := make([][]int, g.NumNodes())
	back := make([]int, 0, 2*g.NumEdges())
	for v := range nb {
		start := len(back)
		back = append(back, g.Pred(v)...)
		back = append(back, g.Succ(v)...)
		nb[v] = back[start:len(back):len(back)]
	}
	return nb
}

// incidentEdges returns, per edge, the ascending indexes of the edges
// sharing an endpoint with it, itself included — the e(v) sets of eq. (5);
// the ascending order keeps float aggregation bit-reproducible. A mark
// array stamped with the current edge deduplicates, and one backing array
// sized from the endpoint degrees holds every set. Training and inference
// share it.
func incidentEdges(set *attr.Set) [][]int {
	g := set.An.G
	bound := 0
	for _, e := range g.Edges {
		bound += len(g.InEdges(e.From)) + len(g.OutEdges(e.From)) +
			len(g.InEdges(e.To)) + len(g.OutEdges(e.To))
	}
	out := make([][]int, g.NumEdges())
	back := make([]int, 0, bound)
	mark := make([]int, g.NumEdges()) // mark[x] == i+1: edge x is already in edge i's set
	for i, e := range g.Edges {
		start := len(back)
		for _, v := range [2]int{e.From, e.To} {
			for _, xs := range [2][]int{g.InEdges(v), g.OutEdges(v)} {
				for _, x := range xs {
					if mark[x] != i+1 {
						mark[x] = i + 1
						back = append(back, x)
					}
				}
			}
		}
		out[i] = back[start:len(back):len(back)]
		insertionSort(out[i])
	}
	return out
}

// insertionSort orders a small int slice ascending without allocating;
// incident sets are a handful of entries each.
func insertionSort(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// scaledNodeInputs builds the scaled node-attribute matrix and ASAP column.
func (m *Model) scaledNodeInputs(set *attr.Set) (na, asap *tensor.Tensor) {
	na = m.scaledMatrix(set.Node, m.NodeScale)
	g := set.An.G
	asap = tensor.New(g.NumNodes(), 1)
	s := m.ASAPScale
	if s == 0 {
		s = 1
	}
	for v := 0; v < g.NumNodes(); v++ {
		asap.Set(v, 0, float64(set.An.ASAP[v])/s)
	}
	return na, asap
}

// scaledMatrix divides each column by its training-set scale (nil scale
// means the model is unscaled). A scale vector whose length disagrees with
// the matrix width is a shape bug — silently clamping would mix scaled and
// unscaled columns into the same matmul — so it fails loudly; Predict
// reports the same condition as a clean error before reaching here.
func (m *Model) scaledMatrix(rows [][]float64, scale []float64) *tensor.Tensor {
	t := tensor.FromRows(rows)
	if scale == nil || t.Rows == 0 {
		return t
	}
	if t.Cols != len(scale) {
		panic(fmt.Sprintf("gnn: model %q scale has %d columns, matrix has %d (attribute-set version skew)",
			m.ArchName, len(scale), t.Cols))
	}
	for i := 0; i < t.Rows; i++ {
		for j := 0; j < t.Cols; j++ {
			if scale[j] != 0 {
				t.Set(i, j, t.At(i, j)/scale[j])
			}
		}
	}
	return t
}
