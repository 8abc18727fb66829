package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// randMat fills a rows×cols matrix with a mix of signed values and exact
// zeros (the taped MatMul skips zero entries of a; the fused path must skip
// the same ones to preserve the accumulation sequence).
func randMat(rng *rand.Rand, rows, cols int) *Tensor {
	t := New(rows, cols)
	for i := range t.Data {
		switch rng.Intn(5) {
		case 0:
			t.Data[i] = 0
		default:
			t.Data[i] = rng.NormFloat64()
		}
	}
	return t
}

// specialMat is randMat salted with the values whose arithmetic is easiest
// to get subtly wrong: -0, ±Inf and NaN, each in about one entry in twenty.
func specialMat(rng *rand.Rand, rows, cols int) *Tensor {
	t := randMat(rng, rows, cols)
	specials := []float64{math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN()}
	for i := range t.Data {
		if rng.Intn(5) == 0 {
			t.Data[i] = specials[rng.Intn(len(specials))]
		}
	}
	return t
}

// assertBitIdentical compares two tensors via Float64bits: the fused path
// promises the same arithmetic sequence as the tape, so even the last ulp
// and the sign of a zero must agree. NaNs compare as one value: when both
// operands of an add are NaN, which payload survives depends on the operand
// order the compiler picks, and a NaN of any payload fails JSON encoding
// with the same message.
func assertBitIdentical(t *testing.T, op string, taped, fused *Tensor) {
	t.Helper()
	if taped.Rows != fused.Rows || taped.Cols != fused.Cols {
		t.Fatalf("%s: shape (%dx%d) vs (%dx%d)", op, taped.Rows, taped.Cols, fused.Rows, fused.Cols)
	}
	for i, want := range taped.Data {
		got := fused.Data[i]
		if math.Float64bits(want) != math.Float64bits(got) && !(math.IsNaN(want) && math.IsNaN(got)) {
			t.Fatalf("%s: element %d differs: %v (taped) vs %v (fused)", op, i, want, got)
		}
	}
}

// TestInferMatMulBitIdentical sweeps every output width the register
// blocking splits differently (1-9 and 16: full four-column passes, tails
// of 1-3, both) and every depth 0-25 (the networks' deepest operand is 24),
// with exact zeros, -0, ±Inf and NaN in both operands.
func TestInferMatMulBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(201))
	in := NewInfer()
	for _, width := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 16} {
		for depth := 0; depth <= 25; depth++ {
			for _, mat := range []func(*rand.Rand, int, int) *Tensor{randMat, specialMat} {
				a := mat(rng, 5, depth)
				b := mat(rng, depth, width)
				assertBitIdentical(t, fmt.Sprintf("matmul %dx%d@%dx%d", a.Rows, a.Cols, b.Rows, b.Cols), MatMul(a, b), in.MatMul(a, b))
				in.Reset()
			}
		}
	}
}

func TestInferElementwiseBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	in := NewInfer()
	a := randMat(rng, 4, 7)
	b := randMat(rng, 4, 7)
	assertBitIdentical(t, "add", Add(a, b), in.Add(a, b))
	assertBitIdentical(t, "mul", Mul(a, b), in.Mul(a, b))
	assertBitIdentical(t, "relu", ReLU(a), in.ReLU(a))
	assertBitIdentical(t, "reciprocal", Reciprocal(a, 1e-9), in.Reciprocal(a, 1e-9))
	// Entries inside the eps guard must map to exactly 1 on both paths.
	g := FromRows([][]float64{{0, 1e-12, -1e-12, 2}})
	assertBitIdentical(t, "reciprocal-guard", Reciprocal(g, 1e-9), in.Reciprocal(g, 1e-9))
}

// poolSets returns index sets over the rows of a 40-row matrix: empty,
// singleton, repeated-index and large sets.
func poolSets(rng *rand.Rand) [][]int {
	large := make([]int, 300)
	for i := range large {
		large[i] = rng.Intn(40)
	}
	return [][]int{{0, 1, 2}, {5}, {}, {3, 1, 4, 0}, {2, 2}, {7, 7, 7, 1}, large, {39, 0}, {}, {12}}
}

// TestInferAggregateBitIdentical checks Pool over a single kind, which is
// what the fused path once spelled Infer.Aggregate, against the taped
// Aggregate for every kind, with -0, ±Inf and NaN entries in x.
func TestInferAggregateBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(204))
	in := NewInfer()
	sets := poolSets(rng)
	for _, kind := range []AggKind{AggMean, AggSum, AggMax, AggMin} {
		for _, cols := range []int{1, 3, 8} {
			for _, mat := range []func(*rand.Rand, int, int) *Tensor{randMat, specialMat} {
				x := mat(rng, 40, cols)
				assertBitIdentical(t, fmt.Sprintf("pool %v over %d columns", kind, cols), Aggregate(x, sets, kind), in.Pool(x, sets, kind))
				in.Reset()
			}
		}
	}
	// Ties and signed zeros: the first of equal extremes wins, as in the tape.
	negZero := math.Copysign(0, -1)
	x := FromRows([][]float64{{negZero, 0, math.NaN()}, {0, negZero, 1}, {math.NaN(), math.Inf(-1), math.Inf(1)}})
	tieSets := [][]int{{0, 1}, {1, 0}, {2, 0, 1}, {0, 2}, {0}}
	for _, kind := range []AggKind{AggMean, AggSum, AggMax, AggMin} {
		assertBitIdentical(t, "pool ties", Aggregate(x, tieSets, kind), in.Pool(x, tieSets, kind))
	}
}

// TestInferConcatColsBitIdentical checks the concatenated row Pool writes,
// which the fused path once built with Infer.ConcatCols, against its
// oracle, ConcatCols over one taped Aggregate per kind, for both kind lists
// the networks use.
func TestInferConcatColsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(203))
	in := NewInfer()
	sets := poolSets(rng)
	for _, kinds := range [][]AggKind{{AggMean, AggMax, AggMin}, {AggMean, AggSum, AggMax, AggMin}} {
		for _, cols := range []int{1, 5, 8} {
			for _, mat := range []func(*rand.Rand, int, int) *Tensor{randMat, specialMat} {
				x := mat(rng, 40, cols)
				parts := make([]*Tensor, len(kinds))
				for p, kind := range kinds {
					parts[p] = Aggregate(x, sets, kind)
				}
				assertBitIdentical(t, fmt.Sprintf("pool %v over %d columns", kinds, cols), ConcatCols(parts...), in.Pool(x, sets, kinds...))
				in.Reset()
			}
		}
	}
}

// TestInferResetReuse proves the arena hands out the same memory after Reset
// and that reuse cannot leak stale values: a second pass over different data
// must produce results untainted by the first.
func TestInferResetReuse(t *testing.T) {
	in := NewInfer()
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	first := in.MatMul(a, b)
	got := append([]float64(nil), first.Data...)
	in.Reset()
	zero := New(2, 2)
	second := in.MatMul(zero, b)
	for i, v := range second.Data {
		if v != 0 {
			t.Fatalf("stale arena value leaked: element %d = %v", i, v)
		}
	}
	in.Reset()
	third := in.MatMul(a, b)
	for i := range got {
		if third.Data[i] != got[i] {
			t.Fatalf("post-Reset recompute diverged at %d: %v vs %v", i, third.Data[i], got[i])
		}
	}
}

// TestInferLargeAllocSpansSlabs forces a single matrix bigger than one slab
// and checks it still round-trips.
func TestInferLargeAllocSpansSlabs(t *testing.T) {
	in := NewInfer()
	rows, cols := 200, 100 // 20000 floats > inferSlabFloats
	m := in.NewMat(rows, cols)
	if len(m.Data) != rows*cols {
		t.Fatalf("oversized alloc: got %d floats", len(m.Data))
	}
	m.Data[0], m.Data[rows*cols-1] = 1, 2
	if m.At(0, 0) != 1 || m.At(rows-1, cols-1) != 2 {
		t.Fatal("oversized matrix not addressable")
	}
}

// TestInferSteadyStateAllocs is the tentpole's contract: after warmup, a
// Reset+forward cycle runs entirely out of retained slabs.
func TestInferSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(205))
	in := NewInfer()
	a := randMat(rng, 16, 12)
	b := randMat(rng, 12, 20)
	sets := [][]int{{0, 1}, {2}, {3, 4, 5}}
	cycle := func() {
		in.Reset()
		h := in.ReLU(in.MatMul(a, b))
		in.Pool(h, sets, AggMean, AggMax, AggMin)
	}
	cycle() // warm the slabs
	allocs := testing.AllocsPerRun(50, cycle)
	if allocs != 0 {
		t.Fatalf("steady-state inference allocates %v times per cycle, want 0", allocs)
	}
}
