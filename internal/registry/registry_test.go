package registry

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"github.com/lisa-go/lisa/internal/arch"
	"github.com/lisa-go/lisa/internal/dfg"
	"github.com/lisa-go/lisa/internal/fault"
	"github.com/lisa-go/lisa/internal/gnn"
	"github.com/lisa-go/lisa/internal/kernels"
	"github.com/lisa-go/lisa/internal/labels"
	"github.com/lisa-go/lisa/internal/mapper"
	"github.com/lisa-go/lisa/internal/traingen"
)

// quickCfg keeps on-demand training inside a test run.
func quickCfg() Config {
	return Config{
		TrainGen: traingen.Config{
			NumDFGs:    12,
			Iterations: 2,
			DFG:        dfg.DefaultRandomConfig(),
			MapOpts:    mapper.Options{MaxMoves: 500},
			Filter:     labels.DefaultFilterConfig(),
		},
		TrainCfg:      gnn.TrainConfig{Epochs: 2, LR: 0.003, WeightDecay: 0.0005},
		Seed:          1,
		TrainOnDemand: true,
	}
}

func TestConcurrentModelForTrainsOnce(t *testing.T) {
	r := New(quickCfg())
	ar := arch.NewBaseline4x4()
	const callers = 8
	models := make([]*gnn.Model, callers)
	var wg sync.WaitGroup
	wg.Add(callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer wg.Done()
			m, err := r.ModelFor(ar)
			if err != nil {
				t.Errorf("ModelFor: %v", err)
				return
			}
			models[i] = m
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if models[i] != models[0] {
			t.Fatal("concurrent ModelFor calls resolved different model instances")
		}
	}
	if got := r.Ready(); len(got) != 1 || got[0] != ar.Name() {
		t.Fatalf("Ready() = %v, want [%s]", got, ar.Name())
	}
	if runs := r.Counters().TrainRuns; runs != 1 {
		t.Fatalf("%d training runs for one target, want 1", runs)
	}
}

func TestPreloadedModelWinsOverTraining(t *testing.T) {
	r := New(quickCfg())
	ar := arch.NewBaseline4x4()
	pre := gnn.NewModel(rand.New(rand.NewSource(9)), ar.Name())
	if !r.Put(pre) {
		t.Fatal("Put of a fresh architecture returned false")
	}
	if r.Put(pre) {
		t.Fatal("second Put for the same architecture claimed to win")
	}
	m, err := r.ModelFor(ar)
	if err != nil {
		t.Fatal(err)
	}
	if m != pre {
		t.Fatal("ModelFor trained a new model despite a pre-loaded one")
	}
}

func TestTrainOnDemandDisabled(t *testing.T) {
	cfg := quickCfg()
	cfg.TrainOnDemand = false
	r := New(cfg)
	ar := arch.NewBaseline4x4()
	if _, err := r.ModelFor(ar); err == nil {
		t.Fatal("ModelFor trained with TrainOnDemand disabled")
	}
	// The failed lookup must not poison the slot for a later Put.
	pre := gnn.NewModel(rand.New(rand.NewSource(9)), ar.Name())
	if !r.Put(pre) {
		t.Fatal("Put after a denied ModelFor returned false")
	}
	if m, err := r.ModelFor(ar); err != nil || m != pre {
		t.Fatalf("ModelFor after Put = (%v, %v), want the pre-loaded model", m, err)
	}
}

func TestLoadDirRoundTrip(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"cgra-4x4", "cgra-8x8"} {
		m := gnn.NewModel(rand.New(rand.NewSource(3)), name)
		f, err := os.Create(filepath.Join(dir, name+".model.json"))
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Save(f); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	cfg := quickCfg()
	cfg.TrainOnDemand = false
	r := New(cfg)
	names, err := r.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "cgra-4x4" || names[1] != "cgra-8x8" {
		t.Fatalf("LoadDir = %v", names)
	}
	ar, _ := arch.ByName("cgra-4x4")
	if _, err := r.ModelFor(ar); err != nil {
		t.Fatalf("ModelFor after LoadDir: %v", err)
	}
	if !r.Has("cgra-8x8") || r.Has("systolic-5x5") {
		t.Fatal("Has reports the wrong set of loaded models")
	}
}

func TestLoadDirRejectsCorruptFile(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "bad.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	r := New(quickCfg())
	if _, err := r.LoadDir(dir); err == nil {
		t.Fatal("LoadDir accepted a corrupt model file")
	}
}

// A failed training run must park the slot: every later ModelFor returns
// the same cached error instantly, with no second training attempt.
func TestTrainingFailureIsCachedNotRetried(t *testing.T) {
	plan, err := fault.ParsePlan("gnn.train=error:1", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := fault.Activate(plan); err != nil {
		t.Fatal(err)
	}
	r := New(quickCfg())
	ar := arch.NewBaseline4x4()
	_, err1 := r.ModelFor(ar)
	if err1 == nil {
		t.Fatal("ModelFor succeeded with the gnn.train fault armed")
	}
	// Disarm: a retraining attempt would now succeed, so a second error
	// proves the failure was cached rather than re-executed.
	fault.Deactivate()
	_, err2 := r.ModelFor(ar)
	if err2 == nil {
		t.Fatal("failed slot silently retrained on the second ModelFor")
	}
	if err1.Error() != err2.Error() {
		t.Fatalf("cached error changed: %q vs %q", err1, err2)
	}
	if got := r.Err(ar.Name()); got == nil || got.Error() != err1.Error() {
		t.Fatalf("Err(%q) = %v, want the cached training error", ar.Name(), got)
	}
	if r.Has(ar.Name()) {
		t.Fatal("Has reports a model for a failed slot")
	}
}

func TestTrainingPanicBecomesCachedError(t *testing.T) {
	plan, err := fault.ParsePlan("gnn.train=panic:1", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := fault.Activate(plan); err != nil {
		t.Fatal(err)
	}
	defer fault.Deactivate()
	r := New(quickCfg())
	ar := arch.NewBaseline4x4()
	_, err1 := r.ModelFor(ar)
	if err1 == nil || !strings.Contains(err1.Error(), "panicked") {
		t.Fatalf("ModelFor under a panic fault = %v, want a cached panic error", err1)
	}
}

func TestRetryClearsFailedSlot(t *testing.T) {
	plan, err := fault.ParsePlan("gnn.train=error:1", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := fault.Activate(plan); err != nil {
		t.Fatal(err)
	}
	r := New(quickCfg())
	ar := arch.NewBaseline4x4()
	if _, err := r.ModelFor(ar); err == nil {
		fault.Deactivate()
		t.Fatal("ModelFor succeeded with the gnn.train fault armed")
	}
	fault.Deactivate()
	if r.Retry("no-such-arch") {
		t.Fatal("Retry cleared a slot that never existed")
	}
	if !r.Retry(ar.Name()) {
		t.Fatal("Retry found nothing to clear on a failed slot")
	}
	if r.Retry(ar.Name()) {
		t.Fatal("second Retry claimed to clear an already-idle slot")
	}
	if _, err := r.ModelFor(ar); err != nil {
		t.Fatalf("ModelFor after Retry: %v", err)
	}
	if got := r.Err(ar.Name()); got != nil {
		t.Fatalf("Err after successful retrain = %v", got)
	}
}

func TestPutHealsFailedSlot(t *testing.T) {
	plan, err := fault.ParsePlan("gnn.train=error:1", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := fault.Activate(plan); err != nil {
		t.Fatal(err)
	}
	r := New(quickCfg())
	ar := arch.NewBaseline4x4()
	if _, err := r.ModelFor(ar); err == nil {
		fault.Deactivate()
		t.Fatal("ModelFor succeeded with the gnn.train fault armed")
	}
	fault.Deactivate()
	pre := gnn.NewModel(rand.New(rand.NewSource(9)), ar.Name())
	if !r.Put(pre) {
		t.Fatal("Put did not heal the failed slot")
	}
	if m, err := r.ModelFor(ar); err != nil || m != pre {
		t.Fatalf("ModelFor after healing Put = (%v, %v), want the pre-loaded model", m, err)
	}
}

func TestLoadFileFaultSite(t *testing.T) {
	dir := t.TempDir()
	ar := arch.NewBaseline4x4()
	m := gnn.NewModel(rand.New(rand.NewSource(3)), ar.Name())
	path := filepath.Join(dir, ar.Name()+".model.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Save(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	plan, err := fault.ParsePlan("registry.load=error:1", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := fault.Activate(plan); err != nil {
		t.Fatal(err)
	}
	r := New(quickCfg())
	if _, err := r.LoadFile(path); err == nil {
		fault.Deactivate()
		t.Fatal("LoadFile succeeded with the registry.load fault armed")
	}
	fault.Deactivate()
	// The failed load leaves no residue: the same file loads cleanly.
	if name, err := r.LoadFile(path); err != nil || name != ar.Name() {
		t.Fatalf("LoadFile after disarming = (%q, %v)", name, err)
	}
}

func TestLabelsForPredictsAndPropagatesErrors(t *testing.T) {
	r := New(quickCfg())
	ar := arch.NewBaseline4x4()
	g := kernels.MustByName("gemm")
	lbl, err := r.LabelsFor(ar, g)
	if err != nil {
		t.Fatal(err)
	}
	if lbl == nil {
		t.Fatal("LabelsFor returned nil labels from a trained model")
	}

	cfg := quickCfg()
	cfg.TrainOnDemand = false
	r2 := New(cfg)
	if _, err := r2.LabelsFor(ar, g); err == nil {
		t.Fatal("LabelsFor succeeded without a model and with training disabled")
	}
}

// TestPutRefusesNonFiniteModel: Put turns away a model with a NaN or ±Inf
// weight or scale and leaves the slot as it was, so a later finite model
// still wins it.
func TestPutRefusesNonFiniteModel(t *testing.T) {
	r := New(Config{TrainOnDemand: false})
	name := arch.NewBaseline4x4().Name()
	for _, poison := range []func(m *gnn.Model){
		func(m *gnn.Model) { m.Temporal.W2.Data[0] = math.NaN() },
		func(m *gnn.Model) { m.Order.W1[3].Data[5] = math.Inf(-1) },
		func(m *gnn.Model) { m.EdgeScale = []float64{1, math.Inf(1)} },
		func(m *gnn.Model) { m.ASAPScale = math.NaN() },
	} {
		m := gnn.NewModel(rand.New(rand.NewSource(1)), name)
		poison(m)
		if m.CheckFinite() == nil {
			t.Fatal("CheckFinite passed a non-finite model")
		}
		if r.Put(m) {
			t.Fatal("Put accepted a non-finite model")
		}
		if r.Has(name) || r.Err(name) != nil {
			t.Fatalf("a refused Put changed the slot: Has %v, Err %v", r.Has(name), r.Err(name))
		}
	}
	if !r.Put(gnn.NewModel(rand.New(rand.NewSource(1)), name)) {
		t.Fatal("Put refused a finite model after refusing poisoned ones")
	}
}

// TestDivergedTrainingIsCachedError: an on-demand training run that leaves
// a non-finite weight behind (an infinite learning rate diverges on the
// first step) fails the slot with the finiteness error, cached like any
// training failure.
func TestDivergedTrainingIsCachedError(t *testing.T) {
	cfg := quickCfg()
	cfg.TrainCfg.LR = math.Inf(1)
	r := New(cfg)
	ar := arch.NewBaseline4x4()
	_, err1 := r.ModelFor(ar)
	if err1 == nil || !strings.Contains(err1.Error(), "is not finite") {
		t.Fatalf("ModelFor after a diverged training run: %v, want the finiteness error", err1)
	}
	if _, err2 := r.ModelFor(ar); err2 == nil || err2.Error() != err1.Error() {
		t.Fatalf("second ModelFor: %v, want the cached %v", err2, err1)
	}
	if runs := r.Counters().TrainRuns; runs != 1 {
		t.Fatalf("%d training runs, want 1", runs)
	}
	if got := r.Err(ar.Name()); got == nil || got.Error() != err1.Error() {
		t.Fatalf("Err = %v, want the cached finiteness error", got)
	}
}
