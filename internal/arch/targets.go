package arch

import "encoding/json"

// The paper's five CGRA targets (§VI "Modelled Spatial Accelerators").

// NewBaseline4x4 returns the 4×4 baseline CGRA (4 registers per PE).
func NewBaseline4x4() *Custom { return NewCGRA("cgra-4x4", 4, 4, 4, MemAll, 24) }

// NewBaseline3x3 returns the 3×3 baseline CGRA.
func NewBaseline3x3() *Custom { return NewCGRA("cgra-3x3", 3, 3, 4, MemAll, 24) }

// NewBaseline8x8 returns the 8×8 baseline CGRA.
func NewBaseline8x8() *Custom { return NewCGRA("cgra-8x8", 8, 8, 4, MemAll, 24) }

// NewLessRouting4x4 returns the 4×4 CGRA with one register per PE.
func NewLessRouting4x4() *Custom { return NewCGRA("cgra-4x4-lessroute", 4, 4, 1, MemAll, 24) }

// NewLessMem4x4 returns the 4×4 CGRA where only left-column PEs reach memory.
func NewLessMem4x4() *Custom { return NewCGRA("cgra-4x4-lessmem", 4, 4, 4, MemLeftColumn, 24) }

// The two variants below are not among the paper's six evaluation targets.
// Its related work motivates them (HyCube-style richer interconnect,
// REVAMP-style heterogeneous PEs), and they are exactly the kind of "new
// accelerator" a portable compiler must absorb without manual retuning —
// examples/newaccel and the portability tests exercise them.

// NewTorus4x4 returns the baseline 4×4 CGRA with its mesh wrapped into a
// torus: each edge PE also links to the opposite edge, halving worst-case
// spatial distance.
func NewTorus4x4() *Custom {
	return mustBuild(Spec{Name: "cgra-4x4-torus", Rows: 4, Cols: 4,
		Links: LinkSpec{Mesh: true, Torus: true}})
}

// NewHetero4x4 returns a heterogeneous 4×4 CGRA in the REVAMP mould: every
// PE has an adder and logic unit, but only the checkerboard PEs, where row
// plus column is even, carry the expensive multiplier/divider/shifter.
func NewHetero4x4() *Custom {
	s := Spec{Name: "cgra-4x4-hetero", Rows: 4, Cols: 4}
	simple := json.RawMessage(`["nop","const","add","sub","and","or","xor","cmp","select"]`)
	for r := 0; r < s.Rows; r++ {
		for c := 1 - r%2; c < s.Cols; c += 2 {
			s.PEs = append(s.PEs, PESpec{At: &[2]int{r, c}, Ops: simple})
		}
	}
	return mustBuild(s)
}

// paperTargets holds the six accelerators of the paper's evaluation in the
// order §VI introduces them. Each is built once; PaperTargets and ByName
// hand out shallow copies, which share the per-PE tables only Build writes.
var paperTargets = [...]Arch{
	NewBaseline4x4(), NewBaseline8x8(), NewBaseline3x3(),
	NewLessRouting4x4(), NewLessMem4x4(), NewSystolic5x5(),
}

// copyOf returns a fresh copy of a built-in target.
func copyOf(a Arch) Arch {
	if c, ok := a.(*Custom); ok {
		cp := *c
		return &cp
	}
	s := *a.(*Systolic)
	return &s
}

// PaperTargets returns the six accelerators of the paper's evaluation in the
// order they are introduced in §VI.
func PaperTargets() []Arch {
	out := make([]Arch, len(paperTargets))
	for i, a := range paperTargets {
		out[i] = copyOf(a)
	}
	return out
}

// ExtendedTargets returns the paper's six targets plus the torus and
// heterogeneous variants.
func ExtendedTargets() []Arch {
	return append(PaperTargets(), NewTorus4x4(), NewHetero4x4())
}

// ByName resolves an architecture by its Name string, returning a fresh
// value on every call; the CLI tools and lisa-serve use it.
func ByName(name string) (Arch, bool) {
	for _, a := range paperTargets {
		if a.Name() == name {
			return copyOf(a), true
		}
	}
	return nil, false
}

// Names lists the available architecture names.
func Names() []string {
	out := make([]string, len(paperTargets))
	for i, a := range paperTargets {
		out[i] = a.Name()
	}
	return out
}
