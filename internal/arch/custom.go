package arch

import (
	"io"

	"github.com/lisa-go/lisa/internal/dfg"
	"github.com/lisa-go/lisa/internal/rgraph"
)

// Custom is a mesh accelerator compiled from a Spec: per-PE op masks and
// register files, configurable interconnect (mesh / torus / diagonals).
// Every built-in CGRA target is one, and a user can bring a *description*
// of their accelerator and get the whole LISA pipeline (training, labels,
// mapping, simulation) with no code changes.
type Custom struct {
	spec   *Spec    // a private copy; a pointer keeps ByName's copies small
	opMask []uint32 // per PE
	regs   []int    // per PE
}

// Build compiles a validated Spec into an Arch.
func (s *Spec) Build() (*Custom, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	n := s.Rows * s.Cols
	spec := *s
	c := &Custom{
		spec:   &spec,
		opMask: make([]uint32, n),
		regs:   make([]int, n),
	}
	defMask, _ := parseOpsField(s.Defaults.Ops)
	if defMask == 0 {
		defMask = allOpsMask()
	}
	defRegs := 4
	if s.Defaults.Registers != nil {
		defRegs = *s.Defaults.Registers
	}
	for pe := 0; pe < n; pe++ {
		c.opMask[pe] = defMask
		c.regs[pe] = defRegs
	}
	for _, ps := range s.PEs {
		pe := ps.At[0]*s.Cols + ps.At[1]
		if mask, _ := parseOpsField(ps.Ops); mask != 0 {
			c.opMask[pe] = mask
		}
		if ps.Registers != nil {
			c.regs[pe] = *ps.Registers
		}
	}
	// The memory policy alone governs load/store: memory PEs gain the
	// memory ops regardless of their ALU op list, every other PE loses
	// them. Spec op lists therefore only need to describe the ALU.
	memMask := maskOf(dfg.OpLoad, dfg.OpStore)
	for pe := 0; pe < n; pe++ {
		mem := true
		switch s.Memory.Policy {
		case "leftColumn":
			mem = pe%s.Cols == 0
		case "custom":
			mem = false
			for _, at := range s.Memory.PEs {
				if at[0]*s.Cols+at[1] == pe {
					mem = true
				}
			}
		}
		if mem {
			c.opMask[pe] |= memMask
		} else {
			c.opMask[pe] &^= memMask
		}
	}
	return c, nil
}

// NewCGRA builds a rows×cols mesh CGRA in the style of the paper's Fig. 1:
// every PE holds a general ALU, a register file of regs entries, a network
// switch and configEntries per-cycle configuration entries (so MaxII is
// configEntries). A PE either computes or routes in a given cycle (Fig. 5);
// its register file buffers values across cycles, the routing resource the
// "less routing resources" variant cuts from four registers to one. mem
// selects the PEs that may execute loads and stores. NewCGRA panics on an
// invalid parameter.
func NewCGRA(label string, rows, cols, regs int, mem MemPolicy, configEntries int) *Custom {
	if configEntries < 1 {
		panic("arch: a CGRA needs at least one configuration entry")
	}
	s := Spec{Name: label, Rows: rows, Cols: cols, MaxII: configEntries,
		Defaults: PESpec{Registers: &regs}}
	if mem == MemLeftColumn {
		s.Memory.Policy = "leftColumn"
	}
	return mustBuild(s)
}

// mustBuild builds a Spec whose only source is the caller's code, so an
// invalid one is a programming error.
func mustBuild(s Spec) *Custom {
	c, err := s.Build()
	if err != nil {
		panic(err)
	}
	return c
}

// LoadArch parses a Spec from r and builds it.
func LoadArch(r io.Reader) (*Custom, error) {
	s, err := ParseSpec(r)
	if err != nil {
		return nil, err
	}
	return s.Build()
}

// Name implements Arch.
func (c *Custom) Name() string { return c.spec.Name }

// NumPEs implements Arch.
func (c *Custom) NumPEs() int { return c.spec.Rows * c.spec.Cols }

// Coord implements Arch.
func (c *Custom) Coord(pe int) (row, col int) { return pe / c.spec.Cols, pe % c.spec.Cols }

// PEAt returns the PE index at (row, col).
func (c *Custom) PEAt(row, col int) int { return row*c.spec.Cols + col }

// SpatialDistance implements Arch: Chebyshev when diagonals exist, wrapped
// when the fabric is a torus, Manhattan otherwise.
func (c *Custom) SpatialDistance(a, b int) int {
	r1, c1 := c.Coord(a)
	r2, c2 := c.Coord(b)
	dr := absInt(r1 - r2)
	dc := absInt(c1 - c2)
	if c.spec.Links.Torus {
		if w := c.spec.Rows - dr; w < dr {
			dr = w
		}
		if w := c.spec.Cols - dc; w < dc {
			dc = w
		}
	}
	if c.spec.Links.Diagonal {
		if dr > dc {
			return dr
		}
		return dc
	}
	return dr + dc
}

// SupportsOp implements Arch.
func (c *Custom) SupportsOp(pe int, op dfg.OpKind) bool {
	return c.opMask[pe]&(1<<uint(op)) != 0
}

// MaxII implements Arch.
func (c *Custom) MaxII() int { return c.spec.MaxII }

// MinII implements Arch: the compute bound, and for each group of op kinds
// that run on exactly the same PEs, the group's ops over its PE count. Ops
// of one group compete for the same FU slots, so the groups give the
// memory-port bound under a memory policy and the scarce units' bound on a
// heterogeneous fabric, where bounding each kind alone would undercount.
func (c *Custom) MinII(g *dfg.Graph) int {
	var ops [256]int // per dfg.OpKind
	for _, n := range g.Nodes {
		ops[n.Op]++
	}
	ii := max(1, ceilDiv(len(g.Nodes), c.NumPEs()))
	var grouped uint32
	for k := 0; k < dfg.NumOpKinds(); k++ {
		bit := uint32(1) << uint(k)
		if grouped&bit != 0 {
			continue
		}
		// Narrow group to the kinds present on every PE that runs k and
		// absent from every PE that does not.
		group, pes := allOpsMask()&^grouped, 0
		for _, m := range c.opMask {
			if m&bit != 0 {
				group &= m
				pes++
			} else {
				group &^= m
			}
		}
		grouped |= group
		if pes == 0 {
			continue // unmappable; the mapper reports failure
		}
		n := 0
		for j := k; j < dfg.NumOpKinds(); j++ {
			if group&(1<<uint(j)) != 0 {
				n += ops[j]
			}
		}
		ii = max(ii, ceilDiv(n, pes))
	}
	return ii
}

// neighbors returns the out-neighborhood per the link spec.
func (c *Custom) neighbors(pe int) []int {
	r, cc := c.Coord(pe)
	var out []int
	add := func(nr, nc int) {
		if c.spec.Links.Torus {
			nr = (nr + c.spec.Rows) % c.spec.Rows
			nc = (nc + c.spec.Cols) % c.spec.Cols
		} else if nr < 0 || nr >= c.spec.Rows || nc < 0 || nc >= c.spec.Cols {
			return
		}
		n := c.PEAt(nr, nc)
		if n == pe {
			return
		}
		for _, seen := range out {
			if seen == n {
				return
			}
		}
		out = append(out, n)
	}
	// Mesh defaults on unless some other pattern is selected explicitly.
	mesh := c.spec.Links.Mesh || (!c.spec.Links.Diagonal && !c.spec.Links.Mesh)
	if mesh || c.spec.Links.Torus {
		add(r-1, cc)
		add(r+1, cc)
		add(r, cc-1)
		add(r, cc+1)
	}
	if c.spec.Links.Diagonal {
		add(r-1, cc-1)
		add(r-1, cc+1)
		add(r+1, cc-1)
		add(r+1, cc+1)
	}
	return out
}

// BuildRGraph implements Arch. Per (PE, cycle) it creates one FU node
// (compute-or-route, capacity 1) and, if the PE has registers, one register
// bank node (capacity its register count). Every edge advances one cycle
// mod II:
//
//	fu(p,t)  -> fu(p,t+1), fu(n,t+1)   route through own or neighbor ALU
//	fu(p,t)  -> reg(p,t+1)             write the register file
//	reg(p,t) -> reg(p,t+1)             hold in the register file
//	reg(p,t) -> fu(p,t+1), fu(n,t+1)   read out through the switch
func (c *Custom) BuildRGraph(ii int) *rgraph.Graph {
	if ii < 1 || ii > c.MaxII() {
		panic("arch: II out of range for " + c.Name())
	}
	g := rgraph.NewGraph(ii)
	n := c.NumPEs()
	fuID := make([][]int, n)
	regID := make([][]int, n)
	for pe := 0; pe < n; pe++ {
		fuID[pe] = make([]int, ii)
		regID[pe] = make([]int, ii)
		for t := 0; t < ii; t++ {
			fuID[pe][t] = g.AddNode(rgraph.Node{
				Kind: rgraph.KindFU, PE: pe, Cycle: t, Cap: 1,
				ComputeOK: true, RouteOK: true, OpsMask: c.opMask[pe],
			})
			if c.regs[pe] > 0 {
				regID[pe][t] = g.AddNode(rgraph.Node{
					Kind: rgraph.KindReg, PE: pe, Cycle: t, Cap: c.regs[pe],
					RouteOK: true,
				})
			} else {
				regID[pe][t] = -1
			}
		}
	}
	for pe := 0; pe < n; pe++ {
		nbs := c.neighbors(pe)
		for t := 0; t < ii; t++ {
			nt := (t + 1) % ii
			g.AddEdge(fuID[pe][t], fuID[pe][nt])
			for _, nb := range nbs {
				g.AddEdge(fuID[pe][t], fuID[nb][nt])
			}
			if regID[pe][t] >= 0 {
				g.AddEdge(fuID[pe][t], regID[pe][nt])
				g.AddEdge(regID[pe][t], regID[pe][nt])
				g.AddEdge(regID[pe][t], fuID[pe][nt])
				for _, nb := range nbs {
					g.AddEdge(regID[pe][t], fuID[nb][nt])
				}
			}
		}
	}
	return g
}
