package mapper

import (
	"strings"
	"testing"

	"github.com/lisa-go/lisa/internal/arch"
	"github.com/lisa-go/lisa/internal/kernels"
)

func TestUtilize(t *testing.T) {
	ar := arch.NewBaseline4x4()
	g := kernels.MustByName("gemm")
	res := mustMap(t, ar, g, AlgLISA, nil, quickOpts(1))
	if !res.OK {
		t.Fatal("map failed")
	}
	u, err := Utilize(ar, g, &res)
	if err != nil {
		t.Fatal(err)
	}
	if u.FUCompute <= 0 || u.FUCompute > 1 {
		t.Fatalf("FU compute utilization %v out of range", u.FUCompute)
	}
	// 14 ops on 16*II slots.
	want := float64(g.NumNodes()) / float64(ar.NumPEs()*res.II)
	if u.FUCompute != want {
		t.Errorf("FU compute = %v, want %v", u.FUCompute, want)
	}
	if u.ScheduleLength <= 0 {
		t.Error("schedule length missing")
	}
	if !strings.Contains(u.String(), "II=") {
		t.Error("String() malformed")
	}
	if _, err := Utilize(ar, g, &Result{}); err == nil {
		t.Error("Utilize must reject failed results")
	}
}

func TestScheduleTable(t *testing.T) {
	ar := arch.NewBaseline3x3()
	g := kernels.MustByName("doitgen")
	res := mustMap(t, ar, g, AlgLISA, nil, quickOpts(2))
	if !res.OK {
		t.Fatal("map failed")
	}
	table := ScheduleTable(ar, g, &res)
	// Every node name (possibly truncated) must appear.
	for _, n := range g.Nodes {
		name := n.Name
		if len(name) >= 8 {
			name = name[:7]
		}
		if !strings.Contains(table, name) {
			t.Errorf("schedule table missing node %q:\n%s", n.Name, table)
		}
	}
	if ScheduleTable(ar, g, &Result{}) != "(no mapping)" {
		t.Error("failed-result table wrong")
	}
}

func TestMapOnTorusAndHetero(t *testing.T) {
	// The new variants must be mappable out of the box — portability.
	for _, ar := range []arch.Arch{arch.NewTorus4x4(), arch.NewHetero4x4()} {
		for _, name := range []string{"gemm", "syr2k"} {
			g := kernels.MustByName(name)
			res := mustMap(t, ar, g, AlgLISA, nil, quickOpts(6))
			if !res.OK {
				t.Errorf("%s on %s: mapping failed", name, ar.Name())
				continue
			}
			if err := Verify(ar, g, &res); err != nil {
				t.Errorf("%s on %s: %v", name, ar.Name(), err)
			}
		}
	}
}

func TestHeteroPlacesMulsOnMultiplierPEs(t *testing.T) {
	ar := arch.NewHetero4x4()
	g := kernels.MustByName("gemm")
	res := mustMap(t, ar, g, AlgLISA, nil, quickOpts(9))
	if !res.OK {
		t.Fatal("map failed")
	}
	for v, n := range g.Nodes {
		if !ar.SupportsOp(res.PE[v], n.Op) {
			t.Fatalf("node %s (op %s) on incompatible PE %d", n.Name, n.Op, res.PE[v])
		}
	}
}
