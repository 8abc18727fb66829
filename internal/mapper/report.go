package mapper

import (
	"fmt"
	"strings"

	"github.com/lisa-go/lisa/internal/arch"
	"github.com/lisa-go/lisa/internal/dfg"
	"github.com/lisa-go/lisa/internal/rgraph"
)

// Utilization summarizes how a successful mapping uses the accelerator —
// the compiler-report counterpart of the II number.
type Utilization struct {
	II int
	// FUCompute is the fraction of (PE, cycle) slots executing an op.
	FUCompute float64
	// FURoute is the fraction of (PE, cycle) slots forwarding a value.
	FURoute float64
	// RegSlots is the number of register (or channel) slot-cycles holding
	// a value.
	RegSlots int
	// BusiestPE and BusiestLoad report the PE with the most activity and
	// its slot count.
	BusiestPE   int
	BusiestLoad int
	// ScheduleLength is the makespan of one iteration in cycles.
	ScheduleLength int
}

// Utilize computes utilization for a successful mapping.
func Utilize(ar arch.Arch, g *dfg.Graph, r *Result) (Utilization, error) {
	if !r.OK {
		return Utilization{}, fmt.Errorf("mapper: result not OK")
	}
	rg := ar.BuildRGraph(r.II)
	u := Utilization{II: r.II}

	fuBusy := map[int]bool{} // FU resource -> computing
	perPE := make([]int, ar.NumPEs())
	for v := range g.Nodes {
		fu := rg.FUAt(r.PE[v], r.Time[v]%r.II)
		fuBusy[fu] = true
		perPE[r.PE[v]]++
		if end := r.Time[v] + 1; end > u.ScheduleLength {
			u.ScheduleLength = end
		}
	}
	fuRouting := map[int]bool{}
	for _, path := range r.Routes {
		for i := 1; i < len(path)-1; i++ {
			n := &rg.Nodes[path[i]]
			switch n.Kind {
			case rgraph.KindFU:
				if !fuBusy[path[i]] {
					fuRouting[path[i]] = true
				}
				perPE[n.PE]++
			case rgraph.KindReg:
				u.RegSlots++
			}
		}
	}
	totalFU := ar.NumPEs() * r.II
	u.FUCompute = float64(len(fuBusy)) / float64(totalFU)
	u.FURoute = float64(len(fuRouting)) / float64(totalFU)
	for pe, n := range perPE {
		if n > u.BusiestLoad {
			u.BusiestLoad = n
			u.BusiestPE = pe
		}
	}
	return u, nil
}

// String renders the utilization one-liner.
func (u Utilization) String() string {
	return fmt.Sprintf(
		"II=%d sched=%d cycles, FU compute %.0f%%, FU route %.0f%%, reg slot-cycles %d, busiest PE %d (%d slots)",
		u.II, u.ScheduleLength, 100*u.FUCompute, 100*u.FURoute,
		u.RegSlots, u.BusiestPE, u.BusiestLoad)
}

// ScheduleTable renders the mapping as a time × PE grid: each cell names the
// op executing there (by node name) or "·" for idle/routing slots. Rows are
// absolute cycles of one iteration.
func ScheduleTable(ar arch.Arch, g *dfg.Graph, r *Result) string {
	if !r.OK {
		return "(no mapping)"
	}
	maxT := 0
	for _, t := range r.Time {
		if t > maxT {
			maxT = t
		}
	}
	colW := 8
	var b strings.Builder
	fmt.Fprintf(&b, "%5s", "cycle")
	for pe := 0; pe < ar.NumPEs(); pe++ {
		row, col := ar.Coord(pe)
		fmt.Fprintf(&b, "%*s", colW, fmt.Sprintf("(%d,%d)", row, col))
	}
	b.WriteByte('\n')

	byCell := map[[2]int]string{}
	for v := range g.Nodes {
		byCell[[2]int{r.Time[v], r.PE[v]}] = g.Nodes[v].Name
	}
	for t := 0; t <= maxT; t++ {
		fmt.Fprintf(&b, "%5d", t)
		for pe := 0; pe < ar.NumPEs(); pe++ {
			name := byCell[[2]int{t, pe}]
			if name == "" {
				name = "·"
			}
			if len(name) >= colW {
				name = name[:colW-1]
			}
			fmt.Fprintf(&b, "%*s", colW, name)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
