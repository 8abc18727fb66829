package gnn

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"github.com/lisa-go/lisa/internal/attr"
	"github.com/lisa-go/lisa/internal/dfg"
	"github.com/lisa-go/lisa/internal/labels"
	"github.com/lisa-go/lisa/internal/tensor"
)

// trainSerial is the serial Train that the concurrent one replaced, kept as
// its oracle: one trainStep per sample steps all four networks in turn, and
// validation sums the per-label losses of validationLossSerial.
func (m *Model) trainSerial(samples []Sample, cfg TrainConfig) TrainStats {
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
	var bestSnap [][]float64
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		stats.Epochs = epoch + 1
		var sum [4]float64
		var cnt [4]int
		for i := range samples {
			losses := m.trainStep(&samples[i], opts)
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
			val := m.validationLossSerial(cfg.Validation)
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
	if bestSnap != nil && badEvals > 0 {
		m.restoreParams(bestSnap)
		stats.RestoredBest = true
	}
	if !math.IsInf(bestVal, 1) {
		stats.BestValLoss = bestVal
	}
	return stats
}

// validationLossSerial is the validation sum before netLoss existed.
func (m *Model) validationLossSerial(samples []Sample) float64 {
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
		ea2 := m.scaledMatrix(s.Set.Edge, m.EdgeScale)
		predT := m.Temporal.Forward(ea2)
		lossT := tensor.MSE(predT, columnTensor(s.Lbl.Temporal))
		tensor.Backward(lossT)
		opts[3].Step()
		losses[3] = lossT.Data[0]
	}
	return losses
}

// edgelessSample is a one-node DFG: it feeds the order network only, so the
// other three networks skip it.
func edgelessSample() Sample {
	g := dfg.New("lone")
	g.AddNode("a", dfg.OpAdd)
	set := attr.Generate(g)
	lbl := labels.NewZero(g)
	lbl.Order[0] = 1
	return Sample{Set: set, Lbl: lbl}
}

// TestTrainConcurrentMatchesSerialOracle: the per-network concurrent Train
// must produce the serial oracle's weights byte for byte (Save bytes) and
// the same TrainStats, with and without validation and early stopping, at
// GOMAXPROCS 1 (the serial loop) and 4.
func TestTrainConcurrentMatchesSerialOracle(t *testing.T) {
	var samples []Sample
	for s := int64(0); s < 5; s++ {
		samples = append(samples, syntheticSample(100+s))
	}
	samples = append(samples, edgelessSample())
	val := []Sample{syntheticSample(120), syntheticSample(121)}

	// Validation labels far from anything the training pulls toward, so
	// validation loss climbs and early stopping fires and rolls back.
	far := syntheticSample(122)
	for v := range far.Lbl.Order {
		far.Lbl.Order[v] = -50
	}
	cases := []struct {
		name string
		cfg  TrainConfig
	}{
		{"plain", TrainConfig{Epochs: 12, LR: 0.003, WeightDecay: 0.0005, RecordHistory: true}},
		{"validated", TrainConfig{Epochs: 12, LR: 0.003, WeightDecay: 0.0005,
			Validation: val, ValidateEvery: 2, Patience: 10, RecordHistory: true}},
		{"early-stop", TrainConfig{Epochs: 40, LR: 0.05, WeightDecay: 0,
			Validation: []Sample{far}, ValidateEvery: 1, Patience: 2}},
	}
	save := func(m *Model) []byte {
		var b bytes.Buffer
		if err := m.Save(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, c := range cases {
			want := NewModel(rand.New(rand.NewSource(7)), "oracle")
			wantStats := want.trainSerial(samples, c.cfg)
			got := NewModel(rand.New(rand.NewSource(7)), "oracle")
			gotStats := got.Train(samples, c.cfg)
			if !bytes.Equal(save(got), save(want)) {
				t.Fatalf("GOMAXPROCS=%d %s: concurrent Train weights differ from the serial oracle", procs, c.name)
			}
			if !reflect.DeepEqual(gotStats, wantStats) {
				t.Fatalf("GOMAXPROCS=%d %s: stats %+v, oracle %+v", procs, c.name, gotStats, wantStats)
			}
			// The early-stopping decisions read the validation sum, whose
			// float summation order must match the oracle's bit for bit.
			for _, set := range [][]Sample{samples, val} {
				if g, w := got.validationLoss(set), want.validationLossSerial(set); g != w {
					t.Fatalf("GOMAXPROCS=%d %s: validation loss %v, oracle %v", procs, c.name, g, w)
				}
			}
			if c.name == "early-stop" && (!gotStats.Stopped || !gotStats.RestoredBest) {
				t.Fatalf("GOMAXPROCS=%d: early stopping did not fire and roll back: %+v", procs, gotStats)
			}
		}
	}
}
