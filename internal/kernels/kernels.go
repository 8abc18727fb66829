// Package kernels provides the PolyBench loop-kernel DFGs the paper's
// evaluation maps (§VI: 12 DFGs supported by CGRA-ME, plus unrolled versions
// with unrolling factor 2).
//
// The paper obtains these DFGs from CGRA-ME's front end; here each kernel's
// innermost loop body is hand-lowered with the dfg.Builder the way a compiler
// would after strength reduction: per array access one base-pointer constant,
// one address add and one load/store, then the compute ops of the statement.
// Loop-invariant scalars (alpha, beta, induction-variable offsets) are OpConst
// nodes. Sizes land in the 13–24 node range of CGRA-ME's PolyBench DFGs.
//
// trmm is the one kernel with a data-dependent triangular guard; its cmp +
// select pair is exactly what the fixed-function systolic PEs cannot execute,
// reproducing the lone ✗ of the paper's Fig. 9g for LISA.
package kernels

import (
	"fmt"
	"sync/atomic"

	"github.com/lisa-go/lisa/internal/dfg"
)

// Names lists the 12 kernels in the order the paper's figures show them.
func Names() []string {
	return []string{
		"gemm", "atax", "bicg", "mvt", "gesummv", "symm",
		"syrk", "syr2k", "trmm", "2mm", "3mm", "doitgen",
	}
}

// UnrolledNames4x4 lists the six unrolled DFGs of Fig. 9d.
func UnrolledNames4x4() []string {
	return []string{"gemm", "atax", "mvt", "symm", "syrk", "doitgen"}
}

// UnrolledNames8x8 lists the eight unrolled DFGs of Fig. 9f.
func UnrolledNames8x8() []string {
	return []string{"gemm", "atax", "bicg", "mvt", "symm", "syrk", "2mm", "doitgen"}
}

// registry holds every built-in kernel: the paper's twelve and the
// extended four (extended.go).
var registry = map[string]*Kernel{
	"gemm":    {build: gemm},
	"atax":    {build: atax},
	"bicg":    {build: bicg},
	"mvt":     {build: mvt},
	"gesummv": {build: gesummv},
	"symm":    {build: symm},
	"syrk":    {build: syrk},
	"syr2k":   {build: syr2k},
	"trmm":    {build: trmm},
	"2mm":     {build: k2mm},
	"3mm":     {build: k3mm},
	"doitgen": {build: doitgen},

	"jacobi1d":  {build: jacobi1d},
	"gemver":    {build: gemver},
	"cholesky":  {build: cholesky},
	"stencil2d": {build: stencil2d},
}

// MemoUnroll is the largest unroll factor whose canonical bytes
// Kernel.Canonical memoizes. It matches lisa-serve's default unroll cap, so
// a default server never encodes a built-in kernel shape twice.
const MemoUnroll = 8

// Kernel is one built-in kernel: its builder and, per unroll factor 1 to
// MemoUnroll, its canonical bytes once first asked for.
type Kernel struct {
	build func() *dfg.Graph
	canon [MemoUnroll]atomic.Pointer[[]byte]
}

// Lookup resolves a built-in kernel by name.
func Lookup(name string) (*Kernel, error) {
	k, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("kernels: unknown kernel %q (have %v)", name, Names())
	}
	return k, nil
}

// Build builds a fresh copy of the kernel's DFG unrolled by factor (<= 1:
// as built).
func (k *Kernel) Build(factor int) *dfg.Graph {
	g := k.build()
	if factor > 1 {
		g = dfg.Unroll(g, factor)
	}
	return g
}

// Canonical returns the canonical encoding (dfg.(*Graph).AppendCanonical)
// of Build(factor) without building the graph again: factors up to
// MemoUnroll are encoded on first use and memoized, so a later call is an
// atomic load that allocates nothing. Larger factors are encoded afresh on
// every call, which keeps the memo bounded. Canonical is safe for
// concurrent use; racing first calls may each encode the kernel, but all
// of them return the one copy that was stored. The returned bytes are
// shared and must not be modified.
//
//lisa:hotpath every named-kernel /v1/map request keys on these bytes instead of building its DFG
func (k *Kernel) Canonical(factor int) []byte {
	if factor < 1 {
		factor = 1
	}
	if factor > MemoUnroll {
		return k.Build(factor).AppendCanonical(nil)
	}
	slot := &k.canon[factor-1]
	if p := slot.Load(); p != nil {
		return *p
	}
	b := k.Build(factor).AppendCanonical(nil)
	slot.CompareAndSwap(nil, &b)
	return *slot.Load()
}

// ByName builds a fresh copy of the named kernel DFG.
func ByName(name string) (*dfg.Graph, error) {
	k, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	return k.Build(1), nil
}

// MustByName is ByName for known-good names (panics otherwise).
func MustByName(name string) *dfg.Graph {
	g, err := ByName(name)
	if err != nil {
		panic(err)
	}
	return g
}

// Unrolled returns the factor-2 unrolled version of the named kernel.
func Unrolled(name string) (*dfg.Graph, error) {
	k, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	return k.Build(2), nil
}

// gemm: C[i][j] += alpha * A[i][k] * B[k][j] (inner k-loop body).
func gemm() *dfg.Graph {
	b := dfg.NewBuilder("gemm")
	pA, pB, pC := b.Const("pA"), b.Const("pB"), b.Const("pC")
	alpha, k := b.Const("alpha"), b.Const("k")
	lA := b.Load("A_ik", b.Addr("aA", pA, k))
	lB := b.Load("B_kj", b.Addr("aB", pB, k))
	m := b.Mul("AxB", lA, lB)
	am := b.Mul("alphaAB", alpha, m)
	lC := b.Load("C_ij", pC)
	s := b.Add("acc", lC, am)
	b.Store("stC", pC, s)
	return b.Graph()
}

// atax: tmp[i] += A[i][j]*x[j];  y[j] += A[i][j]*tmp[i].
func atax() *dfg.Graph {
	b := dfg.NewBuilder("atax")
	pA, px, py, ptmp := b.Const("pA"), b.Const("px"), b.Const("py"), b.Const("ptmp")
	j := b.Const("j")
	lA := b.Load("A_ij", b.Addr("aA", pA, j))
	lx := b.Load("x_j", b.Addr("ax", px, j))
	m1 := b.Mul("Ax", lA, lx)
	ltmp := b.Load("tmp_i", ptmp)
	t2 := b.Add("tmpacc", ltmp, m1)
	b.Store("sttmp", ptmp, t2)
	m2 := b.Mul("Atmp", lA, t2)
	ay := b.Addr("ay", py, j)
	ly := b.Load("y_j", ay)
	y2 := b.Add("yacc", ly, m2)
	b.Store("sty", ay, y2)
	return b.Graph()
}

// bicg: s[j] += r[i]*A[i][j];  q[i] += A[i][j]*p[j]. The shared A load and
// the triple-fanout induction offset make this the dense DFG that vanilla SA
// fails to map on the 4×4 baseline in the paper.
func bicg() *dfg.Graph {
	b := dfg.NewBuilder("bicg")
	pA, pr, pp, ps, pq := b.Const("pA"), b.Const("pr"), b.Const("pp"), b.Const("ps"), b.Const("pq")
	j := b.Const("j")
	aA := b.Addr("aA", pA, j)
	lA := b.Load("A_ij", aA)
	lr := b.Load("r_i", pr)
	m1 := b.Mul("rA", lr, lA)
	as := b.Addr("as", ps, j)
	ls := b.Load("s_j", as)
	s2 := b.Add("sacc", ls, m1)
	b.Store("sts", as, s2)
	ap := b.Addr("ap", pp, j)
	lp := b.Load("p_j", ap)
	m2 := b.Mul("Ap", lA, lp)
	lq := b.Load("q_i", pq)
	q2 := b.Add("qacc", lq, m2)
	b.Store("stq", pq, q2)
	return b.Graph()
}

// mvt: x1[i] += A[i][j]*y1[j];  x2[i] += A[j][i]*y2[j].
func mvt() *dfg.Graph {
	b := dfg.NewBuilder("mvt")
	pA, pAT, py, px1, px2 := b.Const("pA"), b.Const("pAT"), b.Const("py"), b.Const("px1"), b.Const("px2")
	j := b.Const("j")
	l1 := b.Load("A_ij", b.Addr("a1", pA, j))
	ly := b.Load("y_j", b.Addr("ay", py, j))
	m1 := b.Mul("Ay1", l1, ly)
	lx1 := b.Load("x1_i", px1)
	s1 := b.Add("x1acc", lx1, m1)
	b.Store("stx1", px1, s1)
	l2 := b.Load("A_ji", b.Addr("a2", pAT, j))
	m2 := b.Mul("Ay2", l2, ly)
	lx2 := b.Load("x2_i", px2)
	s2 := b.Add("x2acc", lx2, m2)
	b.Store("stx2", px2, s2)
	return b.Graph()
}

// gesummv: tmp += A[i][j]*x[j];  y[i] = alpha*tmp + beta*(B[i][j]*x[j]).
func gesummv() *dfg.Graph {
	b := dfg.NewBuilder("gesummv")
	pA, pB, px, ptmp, py := b.Const("pA"), b.Const("pB"), b.Const("px"), b.Const("ptmp"), b.Const("py")
	alpha, beta, j := b.Const("alpha"), b.Const("beta"), b.Const("j")
	lA := b.Load("A_ij", b.Addr("aA", pA, j))
	lB := b.Load("B_ij", b.Addr("aB", pB, j))
	lx := b.Load("x_j", b.Addr("ax", px, j))
	m1 := b.Mul("Ax", lA, lx)
	m2 := b.Mul("Bx", lB, lx)
	ltmp := b.Load("tmp_i", ptmp)
	t := b.Add("tmpacc", ltmp, m1)
	b.Store("sttmp", ptmp, t)
	a := b.Mul("alphatmp", alpha, t)
	bb := b.Mul("betaBx", beta, m2)
	y := b.Add("y_i", a, bb)
	b.Store("sty", py, y)
	return b.Graph()
}

// symm: C[i][j] = beta*C[i][j] + alpha*A[..]*B[i][j] + alpha-scaled
// symmetric contribution.
func symm() *dfg.Graph {
	b := dfg.NewBuilder("symm")
	pA, pB, pB2, pC := b.Const("pA"), b.Const("pB"), b.Const("pB2"), b.Const("pC")
	alpha, beta, j := b.Const("alpha"), b.Const("beta"), b.Const("j")
	lA := b.Load("A", b.Addr("aA", pA, j))
	lB := b.Load("B", b.Addr("aB", pB, j))
	m1 := b.Mul("AB", lA, lB)
	aC := b.Addr("aC", pC, j)
	lC := b.Load("C", aC)
	m2 := b.Mul("betaC", beta, lC)
	m3 := b.Mul("alphaAB", alpha, m1)
	s := b.Add("sum1", m2, m3)
	lB2 := b.Load("B2", pB2)
	m4 := b.Mul("symc", lB2, lA)
	acc := b.Add("sum2", s, m4)
	b.Store("stC", aC, acc)
	return b.Graph()
}

// syrk: C[i][j] += alpha * A[i][k] * A[j][k].
func syrk() *dfg.Graph {
	b := dfg.NewBuilder("syrk")
	pA1, pA2, pC := b.Const("pA1"), b.Const("pA2"), b.Const("pC")
	alpha, k := b.Const("alpha"), b.Const("k")
	l1 := b.Load("A_ik", b.Addr("a1", pA1, k))
	l2 := b.Load("A_jk", b.Addr("a2", pA2, k))
	m := b.Mul("AA", l1, l2)
	ma := b.Mul("alphaAA", alpha, m)
	lC := b.Load("C_ij", pC)
	s := b.Add("acc", lC, ma)
	b.Store("stC", pC, s)
	return b.Graph()
}

// syr2k: C[i][j] += alpha*A[i][k]*B[j][k] + alpha*A[j][k]*B[i][k]. The widest
// fanout of the suite (the k offset feeds four addresses), making it the
// kernel vanilla SA cannot map on the routing-starved CGRAs in the paper.
func syr2k() *dfg.Graph {
	b := dfg.NewBuilder("syr2k")
	pA, pB, pA2, pB2, pC := b.Const("pA"), b.Const("pB"), b.Const("pA2"), b.Const("pB2"), b.Const("pC")
	alpha, k := b.Const("alpha"), b.Const("k")
	lA1 := b.Load("A_ik", b.Addr("aA1", pA, k))
	lB1 := b.Load("B_ik", b.Addr("aB1", pB, k))
	lA2 := b.Load("A_jk", b.Addr("aA2", pA2, k))
	lB2 := b.Load("B_jk", b.Addr("aB2", pB2, k))
	m1 := b.Mul("AiBj", lA1, lB2)
	m2 := b.Mul("AjBi", lA2, lB1)
	s := b.Add("pair", m1, m2)
	ms := b.Mul("alphapair", alpha, s)
	lC := b.Load("C_ij", pC)
	c2 := b.Add("acc", lC, ms)
	b.Store("stC", pC, c2)
	return b.Graph()
}

// trmm: B[i][j] += A[i][k]*B[k][j] guarded by the triangular condition k > i.
// The guard lowers to cmp + select, which the systolic array's fixed
// multiply/add units cannot execute.
func trmm() *dfg.Graph {
	b := dfg.NewBuilder("trmm")
	pA, pB, pB2 := b.Const("pA"), b.Const("pB"), b.Const("pB2")
	k, i, zero := b.Const("k"), b.Const("i"), b.Const("zero")
	lA := b.Load("A_ik", b.Addr("aA", pA, k))
	lB := b.Load("B_kj", b.Addr("aB", pB, k))
	m := b.Mul("AB", lA, lB)
	c := b.Cmp("k_gt_i", k, i)
	sel := b.Select("guard", c, m, zero)
	lB2 := b.Load("B_ij", pB2)
	s := b.Add("acc", lB2, sel)
	b.Store("stB", pB2, s)
	return b.Graph()
}

// k2mm (2mm): tmp = alpha*A*B;  D = tmp*C + beta*D.
func k2mm() *dfg.Graph {
	b := dfg.NewBuilder("2mm")
	pA, pB, pC, pD, ptmp := b.Const("pA"), b.Const("pB"), b.Const("pC"), b.Const("pD"), b.Const("ptmp")
	alpha, beta, k := b.Const("alpha"), b.Const("beta"), b.Const("k")
	lA := b.Load("A", b.Addr("aA", pA, k))
	lB := b.Load("B", b.Addr("aB", pB, k))
	m1 := b.Mul("AB", lA, lB)
	ma := b.Mul("alphaAB", alpha, m1)
	ltmp := b.Load("tmp", ptmp)
	t := b.Add("tmpacc", ltmp, ma)
	b.Store("sttmp", ptmp, t)
	lC := b.Load("C", b.Addr("aC", pC, k))
	m2 := b.Mul("tmpC", t, lC)
	lD := b.Load("D", pD)
	mb := b.Mul("betaD", beta, lD)
	d := b.Add("dacc", m2, mb)
	b.Store("stD", pD, d)
	return b.Graph()
}

// k3mm (3mm): E = A*B;  G += (A*B)*C chained through the E accumulator.
func k3mm() *dfg.Graph {
	b := dfg.NewBuilder("3mm")
	pA, pB, pC, pE, pG := b.Const("pA"), b.Const("pB"), b.Const("pC"), b.Const("pE"), b.Const("pG")
	k := b.Const("k")
	lA := b.Load("A", b.Addr("aA", pA, k))
	lB := b.Load("B", b.Addr("aB", pB, k))
	m1 := b.Mul("AB", lA, lB)
	b.Store("stE", pE, m1)
	lC := b.Load("C", b.Addr("aC", pC, k))
	m2 := b.Mul("ABC", m1, lC)
	lG := b.Load("G", pG)
	g := b.Add("gacc", lG, m2)
	b.Store("stG", pG, g)
	return b.Graph()
}

// doitgen: sum[p] += A[r][q][s] * C4[s][p].
func doitgen() *dfg.Graph {
	b := dfg.NewBuilder("doitgen")
	pA, pC, psum := b.Const("pA"), b.Const("pC"), b.Const("psum")
	s := b.Const("s")
	lA := b.Load("A", b.Addr("aA", pA, s))
	lC := b.Load("C4", b.Addr("aC", pC, s))
	m := b.Mul("AC", lA, lC)
	lsum := b.Load("sum", psum)
	s2 := b.Add("acc", lsum, m)
	b.Store("stsum", psum, s2)
	return b.Graph()
}
