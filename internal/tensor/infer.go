// Inference-only execution mode. The taped engine in tensor.go allocates a
// Grad buffer, a prev list and a backward closure for every intermediate the
// moment any input is trainable — the right trade for training, pure
// overhead for serving, where trained weights carry requiresGrad but nobody
// ever calls Backward. Infer is the no-tape fast path: the same forward
// math, bit-for-bit, evaluated into a reusable arena.
//
// Bit-identity with the taped ops is a hard contract (the gnn package's
// differential tests enforce it): every Infer op performs the same float64
// operations in the same order as its taped counterpart, so a served
// prediction is byte-identical to what the training-time forward pass would
// have produced. MatMul keeps four output cells of a row in registers while
// k ascends, and each cell still starts from +0 and adds av*b[k][j] for
// ascending k, skipping the zero entries of a, like the taped MatMul. Pool
// replaces a ConcatCols over one taped Aggregate per kind with one pass
// over each set: a sum or mean adds in set order from +0, and a max or min
// starts from the set's first row and keeps the tape's strict > and <
// tests, so NaN and -0 pool exactly as before.
package tensor

import "fmt"

// inferSlabFloats sizes the arena's float64 slabs (128 KiB each).
const inferSlabFloats = 16384

// inferSlabHdrs sizes the arena's Tensor-header slabs.
const inferSlabHdrs = 256

// Infer is an inference-only evaluator: an arena of matrices plus no-tape
// implementations of the forward operations. Tensors returned by its
// methods carry no Grad, no tape, and borrow memory owned by the arena —
// they are valid until the next Reset. An Infer is not safe for concurrent
// use; pool instances across goroutines instead (sync.Pool is a good fit:
// after a few calls every allocation is a slab reuse).
type Infer struct {
	slabs [][]float64
	slab  int // index of the slab currently being carved
	off   int // carve offset within slabs[slab]

	hdrs   [][]Tensor
	hdrCur int
	hdrOff int
}

// NewInfer returns an empty arena; slabs are allocated on first use and
// kept across Reset.
func NewInfer() *Infer { return &Infer{} }

// Reset reclaims every tensor handed out since the previous Reset. The
// memory is retained for reuse; tensors obtained earlier must no longer be
// read.
func (in *Infer) Reset() {
	in.slab, in.off = 0, 0
	in.hdrCur, in.hdrOff = 0, 0
}

// alloc carves a zeroed length-n block out of the arena. Slabs are never
// reallocated (only appended), so previously returned slices stay valid
// until Reset.
func (in *Infer) alloc(n int) []float64 {
	for {
		if in.slab < len(in.slabs) {
			s := in.slabs[in.slab]
			if in.off+n <= len(s) {
				out := s[in.off : in.off+n : in.off+n]
				in.off += n
				for i := range out {
					out[i] = 0
				}
				return out
			}
			in.slab++
			in.off = 0
			continue
		}
		size := inferSlabFloats
		if n > size {
			size = n
		}
		in.slabs = append(in.slabs, make([]float64, size))
	}
}

// hdr carves one Tensor header. Header slabs are append-only for the same
// pointer-stability reason as data slabs.
func (in *Infer) hdr() *Tensor {
	if in.hdrCur == len(in.hdrs) {
		in.hdrs = append(in.hdrs, make([]Tensor, inferSlabHdrs))
	}
	t := &in.hdrs[in.hdrCur][in.hdrOff]
	in.hdrOff++
	if in.hdrOff == len(in.hdrs[in.hdrCur]) {
		in.hdrCur++
		in.hdrOff = 0
	}
	return t
}

// NewMat allocates a zeroed rows×cols matrix in the arena. The result never
// requires gradients; feeding it to the taped ops is allowed (it is a plain
// constant there).
//
//lisa:hotpath arena carve called by every fused op
func (in *Infer) NewMat(rows, cols int) *Tensor {
	t := in.hdr()
	*t = Tensor{Rows: rows, Cols: cols, Data: in.alloc(rows * cols)}
	return t
}

// MatMul returns a @ b without touching the tape. Each pass over a row of a
// fills four output cells, so a row of b is read four columns at a time and
// a row of a once per four columns. Every cell accumulates exactly like the
// taped MatMul: from +0, over ascending k, skipping zero entries of a, each
// step spelled c += av * b so that a compiler fusing multiply-adds fuses
// both paths alike.
//
//lisa:hotpath per-layer matmul of every served prediction; BENCH_gnn.json gates allocs/op
func (in *Infer) MatMul(a, b *Tensor) *Tensor {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: matmul shape (%dx%d)@(%dx%d)", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	n := b.Cols
	out := in.NewMat(a.Rows, n)
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		orow := out.Data[i*n : (i+1)*n]
		j := 0
		for ; j+4 <= n; j += 4 {
			var c0, c1, c2, c3 float64
			for k, av := range arow {
				if av == 0 {
					continue
				}
				bk := b.Data[k*n+j : k*n+j+4]
				c0 += av * bk[0]
				c1 += av * bk[1]
				c2 += av * bk[2]
				c3 += av * bk[3]
			}
			orow[j], orow[j+1], orow[j+2], orow[j+3] = c0, c1, c2, c3
		}
		for ; j < n; j++ {
			var c float64
			for k, av := range arow {
				if av == 0 {
					continue
				}
				c += av * b.Data[k*n+j]
			}
			orow[j] = c
		}
	}
	return out
}

// Add returns a + b (same shape), no tape.
//
//lisa:hotpath fused-inference op; must stay arena-only
func (in *Infer) Add(a, b *Tensor) *Tensor {
	checkSameShape("add", a, b)
	out := in.NewMat(a.Rows, a.Cols)
	for i := range out.Data {
		out.Data[i] = a.Data[i] + b.Data[i]
	}
	return out
}

// Mul returns the element-wise product a ⊙ b, no tape.
//
//lisa:hotpath fused-inference op; must stay arena-only
func (in *Infer) Mul(a, b *Tensor) *Tensor {
	checkSameShape("mul", a, b)
	out := in.NewMat(a.Rows, a.Cols)
	for i := range out.Data {
		out.Data[i] = a.Data[i] * b.Data[i]
	}
	return out
}

// ReLU returns max(x, 0) element-wise, no tape.
//
//lisa:hotpath fused-inference op; must stay arena-only
func (in *Infer) ReLU(x *Tensor) *Tensor {
	out := in.NewMat(x.Rows, x.Cols)
	for i, v := range x.Data {
		if v > 0 {
			out.Data[i] = v
		}
	}
	return out
}

// Reciprocal mirrors the taped Reciprocal: entries with magnitude below eps
// yield exactly 1.
//
//lisa:hotpath fused-inference op; must stay arena-only
func (in *Infer) Reciprocal(x *Tensor, eps float64) *Tensor {
	out := in.NewMat(x.Rows, x.Cols)
	for i, v := range x.Data {
		if v < eps && v > -eps {
			out.Data[i] = 1
		} else {
			out.Data[i] = 1 / v
		}
	}
	return out
}

// Pool pools the rows of x over each index set once per kind and lays the
// pools side by side: row i is [kinds[0] | kinds[1] | …] over the rows
// x[sets[i]], each part x.Cols wide. It equals ConcatCols over one taped
// Aggregate per kind, bit for bit, but reads each set's rows once and
// writes the concatenated row directly. Empty sets yield zero rows. A sum
// or mean adds in set order from +0, and a mean then divides by the set
// size; a max or min starts from the set's first row and replaces on a
// strict > or <, as the tape does.
//
//lisa:hotpath fused-inference op; must stay arena-only
func (in *Infer) Pool(x *Tensor, sets [][]int, kinds ...AggKind) *Tensor {
	cols := x.Cols
	width := cols * len(kinds)
	out := in.NewMat(len(sets), width)
	for i, set := range sets {
		orow := out.Data[i*width : (i+1)*width]
		for si, s := range set {
			row := x.Data[s*cols : (s+1)*cols]
			for p, kind := range kinds {
				part := orow[p*cols : (p+1)*cols]
				switch {
				case kind == AggMean || kind == AggSum:
					for j, v := range row {
						part[j] += v
					}
				case si == 0: // a max or min starts from the set's first row
					copy(part, row)
				case kind == AggMax:
					for j, v := range row {
						if v > part[j] {
							part[j] = v
						}
					}
				case kind == AggMin:
					for j, v := range row {
						if v < part[j] {
							part[j] = v
						}
					}
				}
			}
		}
		if len(set) == 0 {
			continue
		}
		size := float64(len(set))
		for p, kind := range kinds {
			if kind == AggMean {
				part := orow[p*cols : (p+1)*cols]
				for j := range part {
					part[j] /= size
				}
			}
		}
	}
	return out
}
