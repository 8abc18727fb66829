// Package rgraph implements the time-extended (modulo) routing resource
// graph that spatial-accelerator mapping operates on, together with a
// journaling occupancy tracker and an exact-length 0-1 BFS router (the
// heap-Dijkstra it replaced is retained in a test file as the reference
// implementation).
//
// The model follows the paper's Fig. 5 semantics: the accelerator's resources
// are replicated along the time dimension (II cycles for a CGRA modulo
// schedule, a single layer for the systolic array), each processing element
// can either compute or route per cycle, and registers buffer values across
// cycles. Every resource-graph edge advances time by exactly one cycle, so a
// route's hop count *is* its temporal distance — the quantity label 4
// (temporal mapping distance) describes.
package rgraph

import "fmt"

// NodeKind classifies a resource-graph node.
type NodeKind uint8

const (
	// KindFU is a function-unit slot at (PE, cycle): it executes one
	// operation or forwards one value per cycle.
	KindFU NodeKind = iota
	// KindReg is a register-file slot at (PE, cycle): it holds up to Cap
	// distinct values across a cycle boundary.
	KindReg
)

func (k NodeKind) String() string {
	switch k {
	case KindFU:
		return "fu"
	case KindReg:
		return "reg"
	}
	return "?"
}

// Node is one resource in the time-extended graph.
type Node struct {
	ID    int
	Kind  NodeKind
	PE    int // PE index in the architecture
	Cycle int // time slot in [0, II)
	Cap   int // capacity in distinct values (FU: 1, Reg: register count)

	// ComputeOK marks FU nodes where operations may be placed (systolic
	// forward-only channels clear it).
	ComputeOK bool
	// RouteOK marks nodes that may carry routed values. CGRA FUs allow
	// compute-or-route; a systolic compute slot is compute-only.
	RouteOK bool

	// OpsMask restricts which dfg.OpKind values may be placed here, as a
	// bitmask over op kinds. Zero means "no ops" (pure routing resource).
	OpsMask uint32
}

// AllowsOp reports whether an operation of the given kind may be placed on n.
func (n *Node) AllowsOp(op uint8) bool {
	return n.ComputeOK && n.OpsMask&(1<<op) != 0
}

// Graph is an immutable time-extended resource graph. Build one per
// (architecture, II) pair via the architecture's BuildRGraph.
type Graph struct {
	II    int
	Nodes []Node

	adj  [][]int32 // out-neighbors
	radj [][]int32 // in-neighbors

	fuAt map[[2]int]int // (pe, cycle) -> FU node ID
}

// NewGraph creates an empty resource graph for the given II.
func NewGraph(ii int) *Graph {
	return &Graph{II: ii, fuAt: make(map[[2]int]int)}
}

// AddNode appends a resource node and returns its ID.
func (g *Graph) AddNode(n Node) int {
	n.ID = len(g.Nodes)
	if n.Cap <= 0 {
		panic("rgraph: node capacity must be positive")
	}
	g.Nodes = append(g.Nodes, n)
	g.adj = append(g.adj, nil)
	g.radj = append(g.radj, nil)
	if n.Kind == KindFU {
		g.fuAt[[2]int{n.PE, n.Cycle}] = n.ID
	}
	return n.ID
}

// AddEdge connects resource a to resource b (a one-cycle advance).
func (g *Graph) AddEdge(a, b int) {
	g.adj[a] = append(g.adj[a], int32(b))
	g.radj[b] = append(g.radj[b], int32(a))
}

// Out returns the out-neighbor IDs of n (shared slice, do not modify).
func (g *Graph) Out(n int) []int32 { return g.adj[n] }

// In returns the in-neighbor IDs of n.
func (g *Graph) In(n int) []int32 { return g.radj[n] }

// FUAt returns the FU node at (pe, cycle), which must exist.
func (g *Graph) FUAt(pe, cycle int) int {
	id, ok := g.fuAt[[2]int{pe, cycle}]
	if !ok {
		panic(fmt.Sprintf("rgraph: no FU at pe=%d cycle=%d", pe, cycle))
	}
	return id
}

// HasFUAt reports whether an FU node exists at (pe, cycle).
func (g *Graph) HasFUAt(pe, cycle int) bool {
	_, ok := g.fuAt[[2]int{pe, cycle}]
	return ok
}

// NumNodes returns the resource count.
func (g *Graph) NumNodes() int { return len(g.Nodes) }

// FUs returns the IDs of all FU nodes in ID order.
func (g *Graph) FUs() []int {
	var out []int
	for i := range g.Nodes {
		if g.Nodes[i].Kind == KindFU {
			out = append(out, i)
		}
	}
	return out
}
