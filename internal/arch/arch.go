// Package arch models the spatial accelerators the paper evaluates: 2-D mesh
// CGRAs, each compiled from a Spec (the five CGRAs of §VI and the torus and
// heterogeneous variants), and the 5×5 systolic array with Revel-like
// fixed-function compute units. Each architecture knows how to build its
// time-extended routing resource graph for a target II; everything else
// (mapping, labels, GNN) is architecture-agnostic, which is the point of a
// portable compiler.
package arch

import (
	"github.com/lisa-go/lisa/internal/dfg"
	"github.com/lisa-go/lisa/internal/rgraph"
)

// Arch describes a spatial accelerator to the mapper and label machinery.
type Arch interface {
	// Name identifies the architecture in experiment output.
	Name() string
	// NumPEs returns the processing-element count.
	NumPEs() int
	// Coord returns the (row, col) grid position of a PE.
	Coord(pe int) (row, col int)
	// SpatialDistance is the label-space distance between two PEs; 2-D mesh
	// accelerators use Manhattan distance (paper §III-A).
	SpatialDistance(a, b int) int
	// SupportsOp reports whether an op kind may be placed on the PE.
	SupportsOp(pe int, op dfg.OpKind) bool
	// MaxII is the largest initiation interval the configuration memory
	// supports (24 entries for the CGRAs; 1 for the systolic array).
	MaxII() int
	// MinII is the resource-minimal II for the DFG (paper §V-C: nodes
	// divided by PEs, extended with the bound of PEs that alone run some
	// ops, such as the memory ports).
	MinII(g *dfg.Graph) int
	// BuildRGraph materializes the modulo routing resource graph for ii.
	BuildRGraph(ii int) *rgraph.Graph
}

// MemPolicy selects which PEs can access on-chip memory.
type MemPolicy uint8

const (
	// MemAll lets every PE execute loads and stores (baseline CGRAs).
	MemAll MemPolicy = iota
	// MemLeftColumn restricts memory ops to column-0 PEs ("less memory
	// connectivity" CGRA in §VI).
	MemLeftColumn
)

// allOpsMask is the op bitmask for a fully general ALU PE.
func allOpsMask() uint32 {
	var m uint32
	for k := 0; k < dfg.NumOpKinds(); k++ {
		m |= 1 << uint(k)
	}
	return m
}

func maskOf(ops ...dfg.OpKind) uint32 {
	var m uint32
	for _, k := range ops {
		m |= 1 << uint(k)
	}
	return m
}

// ceilDiv returns ceil(a/b) for b > 0.
func ceilDiv(a, b int) int { return (a + b - 1) / b }

// manhattan computes |r1-r2| + |c1-c2|.
func manhattan(r1, c1, r2, c2 int) int { return absInt(r1-r2) + absInt(c1-c2) }

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
