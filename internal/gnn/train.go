package gnn

import (
	"fmt"
	"math"

	"github.com/lisa-go/lisa/internal/attr"
	"github.com/lisa-go/lisa/internal/labels"
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

// Train fits the four networks on samples. Each label's network trains
// independently (the paper designs "a network for each label"); one Adam
// step per sample per epoch.
func (m *Model) Train(samples []Sample, cfg TrainConfig) TrainStats {
	if cfg.Epochs == 0 {
		cfg = DefaultTrainConfig()
	}
	m.fitScales(samples)

	newOpt := func(params []*tensor.Tensor) *tensor.Adam {
		opt := tensor.NewAdam(params)
		opt.LR = cfg.LR
		opt.WeightDecay = cfg.WeightDecay
		return opt
	}
	opts := [4]*tensor.Adam{
		newOpt(m.Order.Params()),
		newOpt(m.Same.Params()),
		newOpt(m.Spatial.Params()),
		newOpt(m.Temporal.Params()),
	}

	stats := TrainStats{NumSamples: len(samples)}
	bestVal := math.Inf(1)
	badEvals := 0
	var bestSnap [][]float64 // weights at the best validation loss
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		stats.Epochs = epoch + 1
		var sum [4]float64
		var cnt [4]int
		for i := range samples {
			s := &samples[i]
			losses := m.trainStep(s, opts)
			for k, l := range losses {
				if !math.IsNaN(l) {
					sum[k] += l
					cnt[k]++
				}
			}
		}
		var mean [4]float64
		for k := range sum {
			if cnt[k] > 0 {
				mean[k] = sum[k] / float64(cnt[k])
			}
		}
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
		s := &samples[i]
		g := s.Set.An.G
		if g.NumNodes() > 0 {
			na, asap := m.scaledNodeInputs(s.Set)
			pred := m.Order.Forward(na, asap, undirectedNeighbors(s.Set))
			total += tensor.MSE(pred, columnTensor(s.Lbl.Order)).Data[0]
		}
		if g.NumEdges() > 0 {
			ea := m.scaledMatrix(s.Set.Edge, m.EdgeScale)
			total += tensor.MSE(m.Spatial.Forward(ea, incidentEdges(s.Set)),
				columnTensor(s.Lbl.Spatial)).Data[0]
			total += tensor.MSE(m.Temporal.Forward(ea),
				columnTensor(s.Lbl.Temporal)).Data[0]
		}
		if len(s.Set.DummyPairs) > 0 {
			da := m.scaledMatrix(s.Set.Dummy, m.DummyScale)
			vals := make([]float64, len(s.Set.DummyPairs))
			for i, p := range s.Set.DummyPairs {
				vals[i] = s.Lbl.SameLevel[p]
			}
			total += tensor.MSE(m.Same.Forward(da), columnTensor(vals)).Data[0]
		}
	}
	return total
}

// trainStep performs one optimization step per label network on one sample
// and returns the four losses (NaN when a sample has no data for a label).
func (m *Model) trainStep(s *Sample, opts [4]*tensor.Adam) [4]float64 {
	g := s.Set.An.G
	losses := [4]float64{math.NaN(), math.NaN(), math.NaN(), math.NaN()}

	if g.NumNodes() > 0 {
		opts[0].ZeroGrad()
		na, asap := m.scaledNodeInputs(s.Set)
		pred := m.Order.Forward(na, asap, undirectedNeighbors(s.Set))
		target := columnTensor(s.Lbl.Order)
		loss := tensor.MSE(pred, target)
		tensor.Backward(loss)
		opts[0].Step()
		losses[0] = loss.Data[0]
	}
	if len(s.Set.DummyPairs) > 0 {
		opts[1].ZeroGrad()
		da := m.scaledMatrix(s.Set.Dummy, m.DummyScale)
		pred := m.Same.Forward(da)
		vals := make([]float64, len(s.Set.DummyPairs))
		for i, p := range s.Set.DummyPairs {
			vals[i] = s.Lbl.SameLevel[p]
		}
		loss := tensor.MSE(pred, columnTensor(vals))
		tensor.Backward(loss)
		opts[1].Step()
		losses[1] = loss.Data[0]
	}
	if g.NumEdges() > 0 {
		ea := m.scaledMatrix(s.Set.Edge, m.EdgeScale)

		opts[2].ZeroGrad()
		predS := m.Spatial.Forward(ea, incidentEdges(s.Set))
		lossS := tensor.MSE(predS, columnTensor(s.Lbl.Spatial))
		tensor.Backward(lossS)
		opts[2].Step()
		losses[2] = lossS.Data[0]

		opts[3].ZeroGrad()
		// Rebuild the input: the previous backward taped through ea.
		ea2 := m.scaledMatrix(s.Set.Edge, m.EdgeScale)
		predT := m.Temporal.Forward(ea2)
		lossT := tensor.MSE(predT, columnTensor(s.Lbl.Temporal))
		tensor.Backward(lossT)
		opts[3].Step()
		losses[3] = lossT.Data[0]
	}
	return losses
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
