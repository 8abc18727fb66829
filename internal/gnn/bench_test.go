package gnn

import (
	"math/rand"
	"testing"

	"github.com/lisa-go/lisa/internal/attr"
	"github.com/lisa-go/lisa/internal/kernels"
)

// benchModel returns a model with fitted scales (the serving configuration)
// without paying for a training run: scales come from one fitScales pass
// over the benchmark's own attribute set.
func benchModel(b *testing.B) (*Model, *attr.Set) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	m := NewModel(rng, "bench")
	set := attr.Generate(kernels.MustByName("gemm"))
	m.fitScales([]Sample{{Set: set}})
	return m, set
}

// BenchmarkGNNInference measures the fused no-tape Predict — the serving
// path. scripts/bench-gnn.sh parses this and BenchmarkGNNInferenceTaped into
// BENCH_gnn.json and gates allocs/op in CI.
func BenchmarkGNNInference(b *testing.B) {
	m, set := benchModel(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Predict(set); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGNNInferenceTaped measures the taped reference forward pass the
// fused path replaced; the allocs/op ratio against BenchmarkGNNInference is
// the tentpole's headline number.
func BenchmarkGNNInferenceTaped(b *testing.B) {
	m, set := benchModel(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.predictTaped(set)
	}
}

// BenchmarkGNNInferenceBatch8 measures one PredictBatch call over eight
// kernels — eight Predict calls in a row — reported per call.
func BenchmarkGNNInferenceBatch8(b *testing.B) {
	m, _ := benchModel(b)
	names := []string{"gemm", "atax", "bicg", "mvt", "gesummv", "syrk", "syr2k", "doitgen"}
	sets := make([]*attr.Set, len(names))
	for i, n := range names {
		sets[i] = attr.Generate(kernels.MustByName(n))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.PredictBatch(sets); err != nil {
			b.Fatal(err)
		}
	}
}
