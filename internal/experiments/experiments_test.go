package experiments

import (
	"strings"
	"testing"
	"time"

	"github.com/lisa-go/lisa/internal/arch"
	"github.com/lisa-go/lisa/internal/kernels"
	"github.com/lisa-go/lisa/internal/mapper"
	"github.com/lisa-go/lisa/internal/power"
)

// testProfile is even smaller than Quick so the whole package tests in
// seconds.
func testProfile() Profile {
	p := Quick()
	p.Name = "test"
	p.MapOpts.MaxMoves = 900
	p.ILPOpts.TimeLimitPerII = 300 * time.Millisecond
	p.ILPOpts.MaxII = 4
	p.TrainGen.NumDFGs = 10
	p.TrainGen.MapOpts.MaxMoves = 400
	p.TrainCfg.Epochs = 15
	p.SARuns = 1
	return p
}

func TestFig9PanelShape(t *testing.T) {
	c := NewContext(testProfile())
	spec, ok := Fig9SpecByID("Fig9b")
	if !ok {
		t.Fatal("Fig9b spec missing")
	}
	spec.Kernels = []string{"gemm", "syrk", "doitgen", "bicg"}
	cmp := c.Fig9(spec)
	if len(cmp.Rows) != 4 {
		t.Fatalf("rows = %d", len(cmp.Rows))
	}
	lisaMapped := 0
	for _, r := range cmp.Rows {
		res := r.Results[MethodLISA]
		if res.OK {
			lisaMapped++
			if err := mapper.Verify(cmp.Arch, r.Graph, &res); err != nil {
				t.Errorf("%s: invalid LISA mapping: %v", r.Kernel, err)
			}
		}
	}
	if lisaMapped < 3 {
		t.Errorf("LISA mapped only %d/4 kernels on 4x4", lisaMapped)
	}
	var sb strings.Builder
	cmp.Render(&sb)
	if !strings.Contains(sb.String(), "gemm") || !strings.Contains(sb.String(), "LISA") {
		t.Errorf("render missing content:\n%s", sb.String())
	}
}

func TestFig9SpecsCoverPaperPanels(t *testing.T) {
	specs := Fig9Specs()
	if len(specs) != 7 {
		t.Fatalf("panels = %d, want 7 (Fig. 9a-g)", len(specs))
	}
	// Panel g is the systolic array; panel f is the 8x8 with 8 unrolled.
	if specs[6].Arch.Name() != "systolic-5x5" {
		t.Error("Fig9g must target the systolic array")
	}
	if !specs[5].Unrolled || len(specs[5].Kernels) != 8 {
		t.Error("Fig9f must use 8 unrolled kernels")
	}
	if !specs[3].Unrolled || len(specs[3].Kernels) != 6 {
		t.Error("Fig9d must use 6 unrolled kernels")
	}
}

func TestFig10And11Derivation(t *testing.T) {
	c := NewContext(testProfile())
	spec, _ := Fig9SpecByID("Fig9b")
	spec.Kernels = []string{"gemm", "doitgen"}
	cmp := c.Fig9(spec)

	prows := Fig10(cmp, power.DefaultParams())
	if len(prows) != 2 {
		t.Fatalf("power rows = %d", len(prows))
	}
	for _, r := range prows {
		if v, ok := r.Normalized[MethodLISA]; ok && v != 1 {
			t.Errorf("%s: LISA normalized efficiency = %v, want 1", r.Kernel, v)
		}
	}
	trows := Fig11(cmp)
	if len(trows) != 2 {
		t.Fatalf("time rows = %d", len(trows))
	}
	for _, r := range trows {
		for m, d := range r.Times {
			if d <= 0 {
				t.Errorf("%s/%s: non-positive compile time", r.Kernel, m)
			}
		}
	}
	var sb strings.Builder
	RenderPower(&sb, "Fig10", cmp.Methods, prows)
	RenderTimes(&sb, "Fig11", cmp.Methods, trows)
	if !strings.Contains(sb.String(), "power efficiency") {
		t.Error("power render missing header")
	}
}

func TestTable2Quick(t *testing.T) {
	c := NewContext(testProfile())
	rows := c.Table2([]arch.Arch{arch.NewBaseline4x4()})
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	for k, a := range rows[0].Accuracy {
		if a < 0 || a > 1 {
			t.Fatalf("label %d accuracy %v out of range", k+1, a)
		}
	}
	var sb strings.Builder
	RenderTable2(&sb, rows)
	if !strings.Contains(sb.String(), "label4") {
		t.Error("table render missing header")
	}
}

func TestSystolicPanelMarksTrmm(t *testing.T) {
	c := NewContext(testProfile())
	spec, _ := Fig9SpecByID("Fig9g")
	spec.Kernels = []string{"doitgen", "trmm"}
	cmp := c.Fig9(spec)
	if cmp.Rows[1].Results[MethodLISA].OK {
		t.Error("trmm must not map on the systolic array")
	}
	var sb strings.Builder
	cmp.Render(&sb)
	if !strings.Contains(sb.String(), "✗") {
		t.Error("systolic render must use ✗ marks")
	}
}

func TestSummarize(t *testing.T) {
	c := NewContext(testProfile())
	spec, _ := Fig9SpecByID("Fig9b")
	spec.Kernels = []string{"gemm", "syr2k"}
	cmp := c.Fig9(spec)
	s := Summarize([]*Comparison{cmp})
	if s.Combinations != 2 {
		t.Fatalf("combinations = %d", s.Combinations)
	}
	if s.MappedBy[MethodLISA] == 0 {
		t.Error("LISA mapped nothing")
	}
	if !strings.Contains(s.String(), "combinations") {
		t.Error("summary string malformed")
	}
}

func TestModelCachePerArch(t *testing.T) {
	c := NewContext(testProfile())
	a := arch.NewBaseline3x3()
	m1 := c.ModelFor(a)
	m2 := c.ModelFor(a)
	if m1 != m2 {
		t.Fatal("model must be cached per architecture")
	}
}

func TestFig12And13RunnersExist(t *testing.T) {
	// Smoke-level: these are exercised at full length by the benchmarks.
	c := NewContext(testProfile())
	c.Profile.TrainGen.NumDFGs = 6
	cmp := c.Compare("Fig12mini", arch.NewBaseline4x4(), []string{"syrk"}, false,
		[]Method{MethodSA, MethodSARP, MethodLISA})
	if len(cmp.Rows) != 1 {
		t.Fatal("ablation comparison empty")
	}
	if _, ok := cmp.Rows[0].Results[MethodSARP]; !ok {
		t.Fatal("SA-RP result missing")
	}
	_ = kernels.Names()
}

func TestExportJSONAndSVG(t *testing.T) {
	c := NewContext(testProfile())
	spec, _ := Fig9SpecByID("Fig9b")
	spec.Kernels = []string{"gemm", "doitgen"}
	cmp := c.Fig9(spec)

	var jbuf strings.Builder
	if err := cmp.WriteJSON(&jbuf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(jbuf.String(), `"kernel": "gemm"`) {
		t.Errorf("JSON missing kernel row:\n%s", jbuf.String())
	}
	var sbuf strings.Builder
	if err := cmp.WriteSVG(&sbuf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sbuf.String(), "<svg") {
		t.Error("SVG export malformed")
	}
}

func TestShapeChecks(t *testing.T) {
	c := NewContext(testProfile())
	spec, _ := Fig9SpecByID("Fig9b")
	spec.Kernels = []string{"gemm", "syrk", "doitgen"}
	cmp := c.Fig9(spec)
	shapes := CheckFig9([]*Comparison{cmp})
	if len(shapes) != 2 {
		t.Fatalf("fig9 shapes = %d", len(shapes))
	}
	var sb strings.Builder
	RenderShapes(&sb, shapes)
	if !strings.Contains(sb.String(), "fig9/coverage-order") {
		t.Error("render missing assertion name")
	}

	// Systolic check with a tiny panel.
	spec9g, _ := Fig9SpecByID("Fig9g")
	spec9g.Kernels = []string{"doitgen", "trmm"}
	cmp9g := c.Fig9(spec9g)
	shapes9g := CheckFig9g(cmp9g)
	if !AllPass(shapes9g) {
		RenderShapes(&sb, shapes9g)
		t.Errorf("fig9g shapes failed:\n%s", sb.String())
	}

	// Fig10/11 checks run on derived rows.
	prows := Fig10(cmp, power.DefaultParams())
	_ = CheckFig10(prows)
	trows := Fig11(cmp)
	f11 := CheckFig11(trows)
	if len(f11) != 2 {
		t.Fatal("fig11 shapes missing")
	}

	// Table 2 trends.
	t2 := []Table2Row{{ArchName: "x", Accuracy: [4]float64{0.5, 0.8, 0.9, 0.95}}}
	if !AllPass(CheckTable2(t2)) {
		t.Error("valid table2 row failed the check")
	}
	bad := []Table2Row{{ArchName: "x", Accuracy: [4]float64{1.5, 0, 0, 0}}}
	if AllPass(CheckTable2(bad)) {
		t.Error("invalid accuracy slipped through")
	}
}

func TestPortabilitySweep(t *testing.T) {
	p := testProfile()
	p.TrainGen.NumDFGs = 5 // 8 targets train here; keep it cheap
	p.TrainGen.MapOpts.MaxMoves = 300
	p.TrainCfg.Epochs = 8
	c := NewContext(p)
	cmps := c.Portability([]string{"gemm"})
	if len(cmps) != 8 {
		t.Fatalf("portability targets = %d, want 8", len(cmps))
	}
	lisaOK := 0
	for _, cmp := range cmps {
		if _, ok := cmp.Rows[0].Results[MethodGreedy]; !ok {
			t.Fatal("greedy result missing")
		}
		if cmp.Rows[0].Results[MethodLISA].OK {
			lisaOK++
		}
	}
	if lisaOK < 7 {
		t.Errorf("LISA mapped gemm on only %d/8 targets", lisaOK)
	}
}

func TestCheckFig12Shape(t *testing.T) {
	// Synthetic comparison with the expected ordering.
	mk := func(ok map[Method]bool) CompareRow {
		r := CompareRow{Kernel: "k", Results: map[Method]mapper.Result{}}
		for m, o := range ok {
			res := mapper.Result{OK: o}
			if o {
				res.II = 2
			}
			r.Results[m] = res
		}
		return r
	}
	good := &Comparison{
		Arch:    arch.NewBaseline4x4(),
		Methods: []Method{MethodSA, MethodSARP, MethodLISA},
		Rows: []CompareRow{
			mk(map[Method]bool{MethodSA: false, MethodSARP: true, MethodLISA: true}),
			mk(map[Method]bool{MethodSA: true, MethodSARP: true, MethodLISA: true}),
		},
	}
	if !AllPass(CheckFig12(good)) {
		t.Fatal("expected ordering should pass")
	}
	bad := &Comparison{
		Arch:    arch.NewBaseline4x4(),
		Methods: good.Methods,
		Rows: []CompareRow{
			mk(map[Method]bool{MethodSA: true, MethodSARP: false, MethodLISA: false}),
		},
	}
	if AllPass(CheckFig12(bad)) {
		t.Fatal("inverted ordering should fail")
	}
}

func TestGeomeanSpeedupEdgeCases(t *testing.T) {
	if GeomeanSpeedup(nil, MethodSA) != 0 {
		t.Fatal("empty rows must yield 0")
	}
	rows := []TimeRow{{
		Kernel: "k",
		Times: map[Method]time.Duration{
			MethodLISA: 10 * time.Millisecond,
			MethodSA:   100 * time.Millisecond,
		},
	}}
	if sp := GeomeanSpeedup(rows, MethodSA); sp != 10 {
		t.Fatalf("speedup = %v, want 10", sp)
	}
}
