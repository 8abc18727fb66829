package gnn

import (
	"fmt"
	"math"

	"github.com/lisa-go/lisa/internal/attr"
	"github.com/lisa-go/lisa/internal/labels"
	"github.com/lisa-go/lisa/internal/parallel"
	"github.com/lisa-go/lisa/internal/tensor"
)

// Sample is one training example: a DFG's attributes with its ground-truth
// labels from the iterative mapping method of §V.
type Sample struct {
	Set *attr.Set
	Lbl *labels.Labels
}

// TrainConfig carries the training hyper-parameters; the defaults are the
// paper's (§VI-B: learning rate 0.001, weight decay 0.0005, 500 epochs).
type TrainConfig struct {
	Epochs      int
	LR          float64
	WeightDecay float64

	// Validation, when non-empty, is evaluated every ValidateEvery epochs;
	// training stops early after Patience evaluations without improvement
	// of the summed per-label losses. Zero values disable early stopping.
	Validation    []Sample
	ValidateEvery int
	Patience      int

	// RecordHistory keeps the per-epoch mean losses in TrainStats.History.
	RecordHistory bool
}

// DefaultTrainConfig returns the paper's settings.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{Epochs: 500, LR: 0.001, WeightDecay: 0.0005}
}

// TrainStats summarizes a training run.
type TrainStats struct {
	Epochs     int        // epochs actually run (early stopping can shorten)
	FinalLoss  [4]float64 // mean per-label loss over the last epoch
	NumSamples int
	// History holds per-epoch mean losses when RecordHistory is set.
	History [][4]float64
	// Stopped reports whether validation-based early stopping fired.
	Stopped bool
	// BestValLoss is the lowest validation loss observed (zero when
	// validation was disabled or never ran).
	BestValLoss float64
	// RestoredBest reports that the weights were rolled back to the
	// best-validation snapshot because the final weights measured worse.
	RestoredBest bool
}

// The four label networks, in the order of every per-label array.
const (
	netOrder = iota
	netSame
	netSpatial
	netTemporal
)

// Train fits the four networks on samples. Each label's network trains
// independently (the paper designs "a network for each label"); one Adam
// step per sample per epoch.
//
// Each epoch runs the four per-network passes concurrently, one network per
// task at GOMAXPROCS width. Nothing is shared between them but read-only
// inputs: each network owns its weights and its Adam state, steps through
// the samples in order, and sums its own loss in sample order. Its float
// operations are therefore exactly those of a serial pass, and the weights
// are bit-identical at any width. Validation and the best-weight snapshot
// stay between epochs, after all four passes have finished.
func (m *Model) Train(samples []Sample, cfg TrainConfig) TrainStats {
	if cfg.Epochs == 0 {
		cfg = DefaultTrainConfig()
	}
	m.fitScales(samples)

	var opts [4]*tensor.Adam
	for k, params := range [4][]*tensor.Tensor{
		m.Order.Params(), m.Same.Params(), m.Spatial.Params(), m.Temporal.Params(),
	} {
		opts[k] = tensor.NewAdam(params)
		opts[k].LR = cfg.LR
		opts[k].WeightDecay = cfg.WeightDecay
	}

	stats := TrainStats{NumSamples: len(samples)}
	bestVal := math.Inf(1)
	badEvals := 0
	var bestSnap [][]float64 // weights at the best validation loss
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		stats.Epochs = epoch + 1
		var mean [4]float64
		// The order network takes about two thirds of an epoch, so it goes
		// first: on two cores the other three share the second.
		parallel.ForEach(0, len(opts), func(k int) {
			sum, cnt := 0.0, 0
			for i := range samples {
				loss := m.netLoss(k, &samples[i])
				if loss == nil {
					continue
				}
				opts[k].ZeroGrad()
				tensor.Backward(loss)
				opts[k].Step()
				if l := loss.Data[0]; !math.IsNaN(l) {
					sum += l
					cnt++
				}
			}
			if cnt > 0 {
				mean[k] = sum / float64(cnt)
			}
		})
		stats.FinalLoss = mean
		if cfg.RecordHistory {
			stats.History = append(stats.History, mean)
		}
		if len(cfg.Validation) > 0 && cfg.ValidateEvery > 0 && cfg.Patience > 0 &&
			(epoch+1)%cfg.ValidateEvery == 0 {
			val := m.validationLoss(cfg.Validation)
			if val < bestVal-1e-9 {
				bestVal = val
				badEvals = 0
				bestSnap = m.snapshotParams(bestSnap)
			} else {
				badEvals++
				if badEvals >= cfg.Patience {
					stats.Stopped = true
					break
				}
			}
		}
	}
	// Early stopping tracked the best validation loss; returning the
	// *last*-epoch weights would hand back a model measured Patience
	// evaluations worse than the best one seen. Roll back whenever the most
	// recent evaluation was not the best (badEvals > 0 covers both the
	// stopped case and an epoch budget that ran out mid-plateau); when the
	// last evaluation was the best, the current weights are at most
	// ValidateEvery-1 unevaluated epochs past it and are kept.
	if bestSnap != nil && badEvals > 0 {
		m.restoreParams(bestSnap)
		stats.RestoredBest = true
	}
	if !math.IsInf(bestVal, 1) {
		stats.BestValLoss = bestVal
	}
	return stats
}

// allParams lists every trainable tensor of the four networks in a fixed
// order (snapshot/restore pair over the same order).
func (m *Model) allParams() []*tensor.Tensor {
	out := append([]*tensor.Tensor{}, m.Order.Params()...)
	out = append(out, m.Same.Params()...)
	out = append(out, m.Spatial.Params()...)
	out = append(out, m.Temporal.Params()...)
	return out
}

// snapshotParams copies every trainable value into buf, allocating it on
// first use and reusing it afterwards so repeated improvements don't churn.
func (m *Model) snapshotParams(buf [][]float64) [][]float64 {
	params := m.allParams()
	if buf == nil {
		buf = make([][]float64, len(params))
		for i, p := range params {
			buf[i] = make([]float64, len(p.Data))
		}
	}
	for i, p := range params {
		copy(buf[i], p.Data)
	}
	return buf
}

// restoreParams copies a snapshot taken by snapshotParams back into the
// model's weights.
func (m *Model) restoreParams(buf [][]float64) {
	for i, p := range m.allParams() {
		copy(p.Data, buf[i])
	}
}

// validationLoss sums the four per-label MSE losses over a held-out set
// without touching any weights.
func (m *Model) validationLoss(samples []Sample) float64 {
	total := 0.0
	for i := range samples {
		// The summation order (order, spatial, temporal, same-level) is part
		// of the early-stopping decisions, so it is fixed.
		for _, k := range [4]int{netOrder, netSpatial, netTemporal, netSame} {
			if loss := m.netLoss(k, &samples[i]); loss != nil {
				total += loss.Data[0]
			}
		}
	}
	return total
}

// netLoss runs network k forward on one sample and returns its taped MSE
// loss, or nil when the sample has no data for that label.
func (m *Model) netLoss(k int, s *Sample) *tensor.Tensor {
	g := s.Set.An.G
	switch k {
	case netOrder:
		if g.NumNodes() == 0 {
			return nil
		}
		na, asap := m.scaledNodeInputs(s.Set)
		pred := m.Order.Forward(na, asap, undirectedNeighbors(s.Set))
		return tensor.MSE(pred, columnTensor(s.Lbl.Order))
	case netSame:
		if len(s.Set.DummyPairs) == 0 {
			return nil
		}
		vals := make([]float64, len(s.Set.DummyPairs))
		for i, p := range s.Set.DummyPairs {
			vals[i] = s.Lbl.SameLevel[p]
		}
		pred := m.Same.Forward(m.scaledMatrix(s.Set.Dummy, m.DummyScale))
		return tensor.MSE(pred, columnTensor(vals))
	}
	if g.NumEdges() == 0 {
		return nil
	}
	ea := m.scaledMatrix(s.Set.Edge, m.EdgeScale)
	if k == netSpatial {
		return tensor.MSE(m.Spatial.Forward(ea, incidentEdges(s.Set)), columnTensor(s.Lbl.Spatial))
	}
	return tensor.MSE(m.Temporal.Forward(ea), columnTensor(s.Lbl.Temporal))
}

// fitScales computes per-column max-abs scalers over the training set.
func (m *Model) fitScales(samples []Sample) {
	m.NodeScale = make([]float64, attr.NodeAttrDim)
	m.EdgeScale = make([]float64, attr.EdgeAttrDim)
	m.DummyScale = make([]float64, attr.DummyAttrDim)
	m.ASAPScale = 1
	grow := func(name string, scale []float64, rows [][]float64) {
		for _, r := range rows {
			// A row wider or narrower than the scale vector means the
			// attribute set changed shape under the model; clamping silently
			// (the old `j < len(scale)` guard) would fit scales to a prefix
			// and mis-scale the rest forever after serialization.
			if len(r) != len(scale) {
				panic(fmt.Sprintf("gnn: %s attribute row has %d columns, want %d (attribute-set version skew)",
					name, len(r), len(scale)))
			}
			for j, v := range r {
				if math.Abs(v) > scale[j] {
					scale[j] = math.Abs(v)
				}
			}
		}
	}
	for i := range samples {
		grow("node", m.NodeScale, samples[i].Set.Node)
		grow("edge", m.EdgeScale, samples[i].Set.Edge)
		grow("dummy", m.DummyScale, samples[i].Set.Dummy)
		if cp := float64(samples[i].Set.An.CriticalPath); cp > m.ASAPScale {
			m.ASAPScale = cp
		}
	}
	for _, scale := range [][]float64{m.NodeScale, m.EdgeScale, m.DummyScale} {
		for j := range scale {
			if scale[j] == 0 {
				scale[j] = 1
			}
		}
	}
}

// Accuracy evaluates the paper's per-label prediction-accuracy metric
// (§VI-B): schedule order counts as accurate when the rounded prediction
// equals the rounded ground truth; same-level association and spatial
// distance tolerate a difference of one; temporal distance tolerates two.
func (m *Model) Accuracy(samples []Sample) [4]float64 {
	sets := make([]*attr.Set, len(samples))
	for i := range samples {
		sets[i] = samples[i].Set
	}
	// The model fitted its own scales, so a skew error here is an internal
	// invariant violation.
	preds, err := m.PredictBatch(sets)
	if err != nil {
		panic("gnn: Accuracy: " + err.Error())
	}
	var hit, total [4]int
	for i := range samples {
		s := &samples[i]
		pred := preds[i]
		for v := range s.Lbl.Order {
			total[0]++
			if math.Round(pred.Order[v]) == math.Round(s.Lbl.Order[v]) {
				hit[0]++
			}
		}
		//lisa:vet-ok maprange integer hit/total counters; addition is commutative, order cannot change the tally
		for p, want := range s.Lbl.SameLevel {
			total[1]++
			if math.Abs(pred.SameLevel[p]-want) <= 1 {
				hit[1]++
			}
		}
		for e := range s.Lbl.Spatial {
			total[2]++
			if math.Abs(pred.Spatial[e]-s.Lbl.Spatial[e]) <= 1 {
				hit[2]++
			}
			total[3]++
			if math.Abs(pred.Temporal[e]-s.Lbl.Temporal[e]) <= 2 {
				hit[3]++
			}
		}
	}
	var acc [4]float64
	for k := range acc {
		if total[k] > 0 {
			acc[k] = float64(hit[k]) / float64(total[k])
		} else {
			acc[k] = 1
		}
	}
	return acc
}

func columnTensor(vals []float64) *tensor.Tensor {
	t := tensor.New(len(vals), 1)
	for i, v := range vals {
		t.Set(i, 0, v)
	}
	return t
}
