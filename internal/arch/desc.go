package arch

import (
	"encoding/json"
	"fmt"
	"io"

	"github.com/lisa-go/lisa/internal/dfg"
)

// Spec is the JSON architecture description — the reproduction's counterpart
// of CGRA-ME's XML ADL. A portable compiler must absorb a *description* of a
// new accelerator rather than code changes; lisa-map/lisa-train accept these
// files via -arch-file and examples/customarch walks through one.
//
// Minimal example:
//
//	{
//	  "name": "diag-6x3",
//	  "rows": 6, "cols": 3,
//	  "maxII": 16,
//	  "defaults": {"registers": 2, "ops": "all"},
//	  "memory": {"policy": "leftColumn"},
//	  "links": {"mesh": true, "diagonal": true}
//	}
//
// Per-PE overrides pin down heterogeneous fabrics:
//
//	"pes": [
//	  {"at": [0, 0], "ops": ["load", "const"], "registers": 0},
//	  {"at": [2, 1], "ops": ["mul", "add"]}
//	]
type Spec struct {
	Name  string `json:"name"`
	Rows  int    `json:"rows"`
	Cols  int    `json:"cols"`
	MaxII int    `json:"maxII"`

	Defaults PESpec   `json:"defaults"`
	Memory   MemSpec  `json:"memory"`
	Links    LinkSpec `json:"links"`
	PEs      []PESpec `json:"pes"`
}

// PESpec describes one PE (or the default for all PEs).
type PESpec struct {
	// At is the [row, col] position; omitted in Defaults.
	At *[2]int `json:"at,omitempty"`
	// Registers is the register-file capacity. nil means "inherit".
	Registers *int `json:"registers,omitempty"`
	// Ops lists op mnemonics, or the strings "all" / "alu" (all minus
	// memory ops). nil means "inherit".
	Ops json.RawMessage `json:"ops,omitempty"`
}

// MemSpec selects the PEs that may execute loads/stores.
type MemSpec struct {
	// Policy is "all" (default), "leftColumn", or "custom".
	Policy string `json:"policy"`
	// PEs lists [row, col] pairs when Policy is "custom".
	PEs [][2]int `json:"pes,omitempty"`
}

// LinkSpec selects the interconnect pattern.
type LinkSpec struct {
	Mesh     bool `json:"mesh"`     // 4-neighborhood (default true)
	Torus    bool `json:"torus"`    // wrap-around rows/columns
	Diagonal bool `json:"diagonal"` // 8-neighborhood diagonals
}

// ParseSpec reads and validates a Spec.
func ParseSpec(r io.Reader) (*Spec, error) {
	var s Spec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("arch: decode spec: %w", err)
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

func (s *Spec) validate() error {
	if s.Name == "" {
		return fmt.Errorf("arch: spec needs a name")
	}
	if s.Rows < 1 || s.Cols < 1 {
		return fmt.Errorf("arch %s: rows/cols must be positive", s.Name)
	}
	if s.MaxII == 0 {
		s.MaxII = 24
	}
	if s.MaxII < 1 {
		return fmt.Errorf("arch %s: maxII must be >= 1", s.Name)
	}
	switch s.Memory.Policy {
	case "", "all", "leftColumn":
	case "custom":
		if len(s.Memory.PEs) == 0 {
			return fmt.Errorf("arch %s: custom memory policy needs pes", s.Name)
		}
		for _, at := range s.Memory.PEs {
			if at[0] < 0 || at[0] >= s.Rows || at[1] < 0 || at[1] >= s.Cols {
				return fmt.Errorf("arch %s: memory PE (%d,%d) out of grid", s.Name, at[0], at[1])
			}
		}
	default:
		return fmt.Errorf("arch %s: unknown memory policy %q", s.Name, s.Memory.Policy)
	}
	if r := s.Defaults.Registers; r != nil && *r < 0 {
		return fmt.Errorf("arch %s: defaults: registers must be >= 0", s.Name)
	}
	for i, pe := range s.PEs {
		if pe.Registers != nil && *pe.Registers < 0 {
			return fmt.Errorf("arch %s: pes[%d]: registers must be >= 0", s.Name, i)
		}
		if pe.At == nil {
			return fmt.Errorf("arch %s: pes[%d] needs \"at\"", s.Name, i)
		}
		if pe.At[0] < 0 || pe.At[0] >= s.Rows || pe.At[1] < 0 || pe.At[1] >= s.Cols {
			return fmt.Errorf("arch %s: pes[%d] at (%d,%d) out of grid",
				s.Name, i, pe.At[0], pe.At[1])
		}
		if _, err := parseOpsField(pe.Ops); err != nil {
			return fmt.Errorf("arch %s: pes[%d]: %v", s.Name, i, err)
		}
	}
	if _, err := parseOpsField(s.Defaults.Ops); err != nil {
		return fmt.Errorf("arch %s: defaults: %v", s.Name, err)
	}
	return nil
}

// parseOpsField resolves an ops field to a bitmask. nil yields (0, nil)
// meaning "inherit"; callers apply defaults.
func parseOpsField(raw json.RawMessage) (uint32, error) {
	if raw == nil {
		return 0, nil
	}
	var label string
	if err := json.Unmarshal(raw, &label); err == nil {
		switch label {
		case "all":
			return allOpsMask(), nil
		case "alu":
			return allOpsMask() &^ maskOf(dfg.OpLoad, dfg.OpStore), nil
		default:
			return 0, fmt.Errorf("unknown ops label %q (want \"all\", \"alu\" or a list)", label)
		}
	}
	var names []string
	if err := json.Unmarshal(raw, &names); err != nil {
		return 0, fmt.Errorf("ops must be a label or a list of mnemonics")
	}
	if len(names) == 0 {
		return 0, fmt.Errorf("ops list is empty")
	}
	var mask uint32
	for _, n := range names {
		k, err := dfg.ParseOpKind(n)
		if err != nil {
			return 0, err
		}
		mask |= 1 << uint(k)
	}
	return mask, nil
}
