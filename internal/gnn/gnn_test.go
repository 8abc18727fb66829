package gnn

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/lisa-go/lisa/internal/attr"
	"github.com/lisa-go/lisa/internal/dfg"
	"github.com/lisa-go/lisa/internal/kernels"
	"github.com/lisa-go/lisa/internal/labels"
)

// syntheticSample builds a sample whose labels are simple functions of the
// attributes, so a working model must be able to fit them.
func syntheticSample(seed int64) Sample {
	rng := rand.New(rand.NewSource(seed))
	g := dfg.Random(rng, dfg.DefaultRandomConfig(), "syn")
	set := attr.Generate(g)
	an := set.An
	lbl := labels.NewZero(g)
	for v := range g.Nodes {
		lbl.Order[v] = float64(an.ASAP[v])
	}
	for i, e := range g.Edges {
		lbl.Spatial[i] = 1
		lbl.Temporal[i] = float64(an.ASAP[e.To] - an.ASAP[e.From])
		if lbl.Temporal[i] < 1 {
			lbl.Temporal[i] = 1
		}
	}
	for _, p := range set.DummyPairs {
		lbl.SameLevel[p] = 2
	}
	return Sample{Set: set, Lbl: lbl}
}

// mustPredict runs Predict and fails the test on a scale-validation error.
func mustPredict(t *testing.T, m *Model, set *attr.Set) *labels.Labels {
	t.Helper()
	lbl, err := m.Predict(set)
	if err != nil {
		t.Fatal(err)
	}
	return lbl
}

func TestPredictShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := NewModel(rng, "test")
	g := kernels.MustByName("gemm")
	set := attr.Generate(g)
	lbl := mustPredict(t, m, set)
	if err := lbl.Validate(g); err != nil {
		t.Fatal(err)
	}
	for e := range lbl.Temporal {
		if lbl.Temporal[e] < 1 {
			t.Fatalf("temporal label %d below 1: %v", e, lbl.Temporal[e])
		}
	}
	if len(lbl.SameLevel) != len(set.DummyPairs) {
		t.Fatalf("same-level predictions %d != pairs %d", len(lbl.SameLevel), len(set.DummyPairs))
	}
}

func TestTrainingReducesLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := NewModel(rng, "test")
	var samples []Sample
	for s := int64(0); s < 6; s++ {
		samples = append(samples, syntheticSample(s))
	}
	first := m.Train(samples, TrainConfig{Epochs: 1, LR: 0.001, WeightDecay: 0.0005})
	more := m.Train(samples, TrainConfig{Epochs: 60, LR: 0.003, WeightDecay: 0.0001})
	for k := 0; k < 4; k++ {
		if more.FinalLoss[k] > first.FinalLoss[k]*1.5+1 {
			t.Errorf("label %d loss grew: %v -> %v", k+1, first.FinalLoss[k], more.FinalLoss[k])
		}
	}
}

func TestTrainingLearnsSyntheticLabels(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := NewModel(rng, "test")
	var samples []Sample
	for s := int64(10); s < 22; s++ {
		samples = append(samples, syntheticSample(s))
	}
	m.Train(samples, TrainConfig{Epochs: 150, LR: 0.005, WeightDecay: 0.0001})
	acc := m.Accuracy(samples)
	// Labels 2-4 are smooth functions of the attributes with generous
	// tolerances; a working implementation fits them well on train data.
	if acc[1] < 0.7 || acc[2] < 0.7 || acc[3] < 0.7 {
		t.Errorf("training-set accuracy too low: %v", acc)
	}
}

func TestAccuracyPerfectOnOwnPredictions(t *testing.T) {
	// Feeding a model's own predictions back as ground truth must yield
	// accuracy 1 for every label.
	rng := rand.New(rand.NewSource(4))
	m := NewModel(rng, "test")
	s := syntheticSample(99)
	s.Lbl = mustPredict(t, m, s.Set)
	acc := m.Accuracy([]Sample{s})
	for k, a := range acc {
		if a != 1 {
			t.Errorf("label %d self-accuracy = %v, want 1", k+1, a)
		}
	}
}

func TestModelsAreIndependentPerArch(t *testing.T) {
	r1 := rand.New(rand.NewSource(5))
	r2 := rand.New(rand.NewSource(5))
	m1 := NewModel(r1, "a")
	m2 := NewModel(r2, "b")
	s := syntheticSample(7)
	m1.Train([]Sample{s}, TrainConfig{Epochs: 5, LR: 0.01, WeightDecay: 0})
	p1 := mustPredict(t, m1, s.Set)
	p2 := mustPredict(t, m2, s.Set)
	diff := 0.0
	for v := range p1.Order {
		diff += p1.Order[v] - p2.Order[v]
	}
	if diff == 0 {
		t.Error("training one model must not affect (or equal) the untrained one")
	}
}

func TestIncidentEdgesIncludesSelf(t *testing.T) {
	g := kernels.MustByName("syrk")
	set := attr.Generate(g)
	inc := incidentEdges(set)
	for e, lst := range inc {
		found := false
		for _, x := range lst {
			if x == e {
				found = true
			}
		}
		if !found {
			t.Fatalf("edge %d missing from its own incident set", e)
		}
	}
}

// TestIncidentEdgesMatchesNaive checks the shared incident-set builder
// against the map-per-edge construction it replaced, on kernels and random
// DFGs.
func TestIncidentEdgesMatchesNaive(t *testing.T) {
	var sets []*attr.Set
	for _, k := range []string{"gemm", "syrk", "doitgen", "3mm"} {
		sets = append(sets, attr.Generate(kernels.MustByName(k)))
	}
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 20; i++ {
		sets = append(sets, attr.Generate(dfg.Random(rng, dfg.DefaultRandomConfig(), "rnd")))
	}
	for _, set := range sets {
		want, got := naiveIncidentEdges(set), incidentEdges(set)
		if len(got) != len(want) {
			t.Fatalf("%s: %d sets, want %d", set.An.G.Name, len(got), len(want))
		}
		for e := range want {
			if fmt.Sprint(got[e]) != fmt.Sprint(want[e]) {
				t.Fatalf("%s: edge %d incident set %v, want %v", set.An.G.Name, e, got[e], want[e])
			}
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := NewModel(rng, "cgra-4x4")
	s := syntheticSample(3)
	m.Train([]Sample{s}, TrainConfig{Epochs: 3, LR: 0.01, WeightDecay: 0})
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	fresh := NewModel(rand.New(rand.NewSource(999)), "other")
	loaded, err := Load(&buf, fresh)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.ArchName != "cgra-4x4" {
		t.Fatal("arch name lost")
	}
	p1 := mustPredict(t, m, s.Set)
	p2 := mustPredict(t, loaded, s.Set)
	for v := range p1.Order {
		if p1.Order[v] != p2.Order[v] {
			t.Fatalf("prediction diverged after round trip at node %d", v)
		}
	}
	for e := range p1.Temporal {
		if p1.Temporal[e] != p2.Temporal[e] || p1.Spatial[e] != p2.Spatial[e] {
			t.Fatalf("edge prediction diverged at %d", e)
		}
	}
}

func TestLoadRejectsBadInput(t *testing.T) {
	fresh := NewModel(rand.New(rand.NewSource(1)), "x")
	if _, err := Load(strings.NewReader("{"), fresh); err == nil {
		t.Fatal("truncated JSON must fail")
	}
	if _, err := Load(strings.NewReader(`{"format":99}`), fresh); err == nil {
		t.Fatal("unknown format must fail")
	}
}

func TestTrainingHistoryAndEarlyStopping(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	m := NewModel(rng, "hist")
	var train, val []Sample
	for s := int64(30); s < 36; s++ {
		train = append(train, syntheticSample(s))
	}
	for s := int64(40); s < 43; s++ {
		val = append(val, syntheticSample(s))
	}
	stats := m.Train(train, TrainConfig{
		Epochs: 40, LR: 0.003, WeightDecay: 0,
		RecordHistory: true,
		Validation:    val, ValidateEvery: 2, Patience: 3,
	})
	if len(stats.History) != stats.Epochs {
		t.Fatalf("history length %d != epochs run %d", len(stats.History), stats.Epochs)
	}
	if stats.Epochs > 40 {
		t.Fatal("ran more epochs than configured")
	}
	// Loss trends down over the first half on the training set.
	first, mid := stats.History[0], stats.History[len(stats.History)/2]
	improved := 0
	for k := 0; k < 4; k++ {
		if mid[k] <= first[k] {
			improved++
		}
	}
	if improved < 2 {
		t.Errorf("losses not trending down: first %v mid %v", first, mid)
	}
}

func TestValidationLossFiniteAndPositive(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	m := NewModel(rng, "v")
	s := syntheticSample(50)
	m.fitScales([]Sample{s})
	v := m.validationLoss([]Sample{s})
	if v <= 0 || v != v {
		t.Fatalf("validation loss = %v", v)
	}
}

// TestCheckFinite: CheckFinite passes a fresh model and names the first
// non-finite weight or scale of a poisoned one.
func TestCheckFinite(t *testing.T) {
	if err := NewModel(rand.New(rand.NewSource(1)), "x").CheckFinite(); err != nil {
		t.Fatalf("fresh model: %v", err)
	}
	for _, c := range []struct {
		poison func(m *Model)
		want   string
	}{
		{func(m *Model) { m.Temporal.W2.Data[0] = math.NaN() }, `gnn: model "x" temporal.W2[0] = NaN is not finite`},
		{func(m *Model) { m.Order.W1[2].Data[3] = math.Inf(1); m.Same.W1.Data[1] = math.NaN() }, `gnn: model "x" order.W1.2[3] = +Inf is not finite`},
		{func(m *Model) { m.DummyScale = []float64{1, math.Inf(-1)} }, `gnn: model "x" dummyScale[1] = -Inf is not finite`},
		{func(m *Model) { m.ASAPScale = math.NaN() }, `gnn: model "x" asapScale[0] = NaN is not finite`},
	} {
		m := NewModel(rand.New(rand.NewSource(1)), "x")
		c.poison(m)
		if err := m.CheckFinite(); err == nil || err.Error() != c.want {
			t.Errorf("CheckFinite = %v, want %s", err, c.want)
		}
	}
}
