package gnn

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/lisa-go/lisa/internal/attr"
	"github.com/lisa-go/lisa/internal/dfg"
	"github.com/lisa-go/lisa/internal/kernels"
	"github.com/lisa-go/lisa/internal/labels"
)

// assertLabelsBitIdentical compares two label sets with Float64bits: the
// fused/batched paths promise the exact float sequence of the taped
// reference, so approximate comparison would mask a real divergence.
func assertLabelsBitIdentical(t *testing.T, name string, set *attr.Set, want, got *labels.Labels) {
	t.Helper()
	for v := range want.Order {
		if math.Float64bits(want.Order[v]) != math.Float64bits(got.Order[v]) {
			t.Fatalf("%s: Order[%d] = %v, want %v", name, v, got.Order[v], want.Order[v])
		}
	}
	for e := range want.Spatial {
		if math.Float64bits(want.Spatial[e]) != math.Float64bits(got.Spatial[e]) {
			t.Fatalf("%s: Spatial[%d] = %v, want %v", name, e, got.Spatial[e], want.Spatial[e])
		}
		if math.Float64bits(want.Temporal[e]) != math.Float64bits(got.Temporal[e]) {
			t.Fatalf("%s: Temporal[%d] = %v, want %v", name, e, got.Temporal[e], want.Temporal[e])
		}
	}
	if len(want.SameLevel) != len(got.SameLevel) {
		t.Fatalf("%s: SameLevel size %d, want %d", name, len(got.SameLevel), len(want.SameLevel))
	}
	// Iterate the pair key slice, not the map, for a deterministic order.
	for _, p := range set.DummyPairs {
		if math.Float64bits(want.SameLevel[p]) != math.Float64bits(got.SameLevel[p]) {
			t.Fatalf("%s: SameLevel[%v] = %v, want %v", name, p, got.SameLevel[p], want.SameLevel[p])
		}
	}
}

// trainedTestModel returns a lightly trained model (non-trivial weights and
// fitted scales) shared by the differential tests.
func trainedTestModel(seed int64) *Model {
	rng := rand.New(rand.NewSource(seed))
	m := NewModel(rng, "diff")
	var samples []Sample
	for s := int64(60); s < 64; s++ {
		samples = append(samples, syntheticSample(s))
	}
	m.Train(samples, TrainConfig{Epochs: 8, LR: 0.005, WeightDecay: 0.0001})
	return m
}

// TestFusedPredictBitIdenticalToTaped is the tentpole's core differential
// test: the fused no-tape Predict must reproduce the taped forward pass bit
// for bit on every label network, across real kernels and random DFGs.
func TestFusedPredictBitIdenticalToTaped(t *testing.T) {
	m := trainedTestModel(31)
	var sets []*attr.Set
	for _, k := range []string{"gemm", "syrk", "doitgen", "atax"} {
		sets = append(sets, attr.Generate(kernels.MustByName(k)))
	}
	rng := rand.New(rand.NewSource(32))
	for i := 0; i < 4; i++ {
		g := dfg.Random(rng, dfg.DefaultRandomConfig(), "rnd")
		sets = append(sets, attr.Generate(g))
	}
	for _, set := range sets {
		want := m.predictTaped(set)
		got, err := m.Predict(set)
		if err != nil {
			t.Fatal(err)
		}
		assertLabelsBitIdentical(t, set.An.G.Name, set, want, got)
	}
}

// TestPredictBatchMatchesSinglePredict: the batch output must be
// byte-for-byte the per-DFG output at every batch size.
func TestPredictBatchMatchesSinglePredict(t *testing.T) {
	m := trainedTestModel(33)
	var sets []*attr.Set
	for _, k := range []string{"gemm", "bicg", "mvt", "syr2k", "trmm"} {
		sets = append(sets, attr.Generate(kernels.MustByName(k)))
	}
	single := make([]*labels.Labels, len(sets))
	for i, set := range sets {
		var err error
		single[i], err = m.Predict(set)
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range []int{1, 2, len(sets)} {
		batch, err := m.PredictBatch(sets[:n])
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			assertLabelsBitIdentical(t, sets[i].An.G.Name, sets[i], single[i], batch[i])
		}
	}
}

// TestPredictBatchEmptyAndReuse covers the degenerate batch and arena reuse
// across consecutive calls (the pool hands the same Infer back).
func TestPredictBatchEmptyAndReuse(t *testing.T) {
	m := trainedTestModel(34)
	if out, err := m.PredictBatch(nil); err != nil || len(out) != 0 {
		t.Fatalf("empty batch: %v, %d labels", err, len(out))
	}
	set := attr.Generate(kernels.MustByName("gemm"))
	first := mustPredict(t, m, set)
	for i := 0; i < 3; i++ {
		again := mustPredict(t, m, set)
		assertLabelsBitIdentical(t, "reuse", set, first, again)
	}
}

// TestPredictRejectsScaleSkew locks in the version-skew guard: a scale
// vector whose length disagrees with the attribute dimensionality must turn
// into a clean error, not silently half-scaled predictions (the old
// `j < len(scale)` clamp).
func TestPredictRejectsScaleSkew(t *testing.T) {
	m := trainedTestModel(35)
	set := attr.Generate(kernels.MustByName("gemm"))
	m.NodeScale = m.NodeScale[:attr.NodeAttrDim-1]
	if _, err := m.Predict(set); err == nil || !strings.Contains(err.Error(), "version skew") {
		t.Fatalf("short NodeScale: err = %v, want version-skew error", err)
	}
	if _, err := m.PredictBatch([]*attr.Set{set}); err == nil {
		t.Fatal("PredictBatch must reject the same skew")
	}
	m.NodeScale = nil // nil means unscaled and is valid
	m.EdgeScale = append(m.EdgeScale, 1)
	if _, err := m.Predict(set); err == nil || !strings.Contains(err.Error(), "edge scale") {
		t.Fatalf("long EdgeScale: err = %v, want edge-scale error", err)
	}
}

// TestFitScalesPanicsOnSkewedRows: a training row that disagrees with the
// attribute dimensionality must fail loudly instead of fitting a prefix.
func TestFitScalesPanicsOnSkewedRows(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	m := NewModel(rng, "skew")
	s := syntheticSample(70)
	s.Set.Node[0] = s.Set.Node[0][:attr.NodeAttrDim-1]
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("fitScales must panic on a short attribute row")
		}
		if !strings.Contains(r.(string), "version skew") {
			t.Fatalf("panic %v does not name version skew", r)
		}
	}()
	m.fitScales([]Sample{s})
}

// TestLoadRejectsCorruptScales: serialized scale entries that are zero,
// negative or non-finite would silently corrupt scaling for one column;
// Load must reject the file whole.
func TestLoadRejectsCorruptScales(t *testing.T) {
	m := trainedTestModel(37)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	corrupt := func(mutate func(f map[string]any)) string {
		var f map[string]any
		if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
			t.Fatal(err)
		}
		mutate(f)
		b, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	cases := map[string]string{
		"zero node scale": corrupt(func(f map[string]any) {
			f["nodeScale"].([]any)[0] = 0.0
		}),
		"negative edge scale": corrupt(func(f map[string]any) {
			f["edgeScale"].([]any)[1] = -2.0
		}),
		"negative asap scale": corrupt(func(f map[string]any) {
			f["asapScale"] = -1.0
		}),
	}
	names := []string{"zero node scale", "negative edge scale", "negative asap scale"}
	for _, name := range names {
		fresh := NewModel(rand.New(rand.NewSource(1)), "x")
		if _, err := Load(strings.NewReader(cases[name]), fresh); err == nil {
			t.Errorf("%s: Load accepted a corrupt scale", name)
		}
	}
}

// TestEarlyStoppingRestoresBestWeights: the validation labels are the
// untrained model's own predictions, so every training step (toward large
// constant targets) degrades validation loss monotonically after the first
// evaluation. Early stopping must fire AND hand back the weights from the
// best evaluation, not the ones Patience evaluations worse.
func TestEarlyStoppingRestoresBestWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	m := NewModel(rng, "early")

	val := syntheticSample(80)
	val.Lbl = mustPredict(t, m, val.Set) // untrained self-predictions

	train := syntheticSample(81)
	for v := range train.Lbl.Order {
		train.Lbl.Order[v] = 100
	}
	for e := range train.Lbl.Spatial {
		train.Lbl.Spatial[e] = 100
		train.Lbl.Temporal[e] = 100
	}
	for _, p := range train.Set.DummyPairs {
		train.Lbl.SameLevel[p] = 100
	}

	stats := m.Train([]Sample{train}, TrainConfig{
		Epochs: 50, LR: 0.01, WeightDecay: 0,
		Validation: []Sample{val}, ValidateEvery: 1, Patience: 2,
	})
	if !stats.Stopped {
		t.Fatalf("early stopping did not fire: %+v", stats)
	}
	if !stats.RestoredBest {
		t.Fatal("weights were not rolled back to the best-validation snapshot")
	}
	if stats.BestValLoss <= 0 {
		t.Fatalf("BestValLoss = %v, want > 0", stats.BestValLoss)
	}
	// The restore is a byte-exact copy, so re-measuring validation loss on
	// the returned weights must reproduce BestValLoss exactly.
	if got := m.validationLoss([]Sample{val}); got != stats.BestValLoss {
		t.Fatalf("validation loss after restore = %v, want the recorded best %v", got, stats.BestValLoss)
	}
}

// TestEarlyStoppingKeepsFinalWeightsWhenLastEvalIsBest: when training
// improves through the final epoch, no rollback may happen.
func TestEarlyStoppingKeepsFinalWeightsWhenLastEvalIsBest(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	m := NewModel(rng, "improving")
	s := syntheticSample(82)
	stats := m.Train([]Sample{s}, TrainConfig{
		Epochs: 6, LR: 0.003, WeightDecay: 0,
		Validation: []Sample{s}, ValidateEvery: 1, Patience: 4,
	})
	if stats.Stopped {
		t.Skipf("training plateaued early (%+v); rollback legitimately fired", stats)
	}
	if stats.RestoredBest && stats.BestValLoss != m.validationLoss([]Sample{s}) {
		t.Fatal("rollback left weights inconsistent with the recorded best")
	}
}
