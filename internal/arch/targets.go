package arch

// paperTargets lists the six accelerators of the paper's evaluation in the
// order they are introduced in §VI, each with the name its constructor
// gives it, so a lookup builds only the target it returns.
var paperTargets = [...]struct {
	name  string
	build func() Arch
}{
	{"cgra-4x4", func() Arch { return NewBaseline4x4() }},
	{"cgra-8x8", func() Arch { return NewBaseline8x8() }},
	{"cgra-3x3", func() Arch { return NewBaseline3x3() }},
	{"cgra-4x4-lessroute", func() Arch { return NewLessRouting4x4() }},
	{"cgra-4x4-lessmem", func() Arch { return NewLessMem4x4() }},
	{"systolic-5x5", func() Arch { return NewSystolic5x5() }},
}

// PaperTargets returns the six accelerators of the paper's evaluation in the
// order they are introduced in §VI.
func PaperTargets() []Arch {
	out := make([]Arch, len(paperTargets))
	for i, t := range paperTargets {
		out[i] = t.build()
	}
	return out
}

// ByName resolves an architecture by its Name string, returning a fresh
// value on every call; the CLI tools and lisa-serve use it.
func ByName(name string) (Arch, bool) {
	for _, t := range paperTargets {
		if t.name == name {
			return t.build(), true
		}
	}
	return nil, false
}

// Names lists the available architecture names.
func Names() []string {
	out := make([]string, len(paperTargets))
	for i, t := range paperTargets {
		out[i] = t.name
	}
	return out
}
