// Package dfg implements the dataflow-graph substrate of the LISA
// reproduction: the graph representation the mapper consumes, the structural
// analyses the Attributes Generator (paper §IV-A) is built on, a random DFG
// generator for GNN training data (paper §V-A), loop unrolling, and DOT
// export.
//
// A DFG node is one operation of a loop-kernel body; an edge is a data
// dependency between operations. All graphs handled here are directed and
// acyclic (the paper maps loop bodies; loop-carried recurrences are not
// modelled, so RecMII = 1 throughout).
package dfg

import "fmt"

// OpKind identifies the operation a DFG node performs. The set matches what
// the modelled accelerators support: memory ops, integer/float ALU ops and
// constants.
type OpKind uint8

// Supported operation kinds.
const (
	OpNop OpKind = iota
	OpConst
	OpLoad
	OpStore
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpShl
	OpShr
	OpAnd
	OpOr
	OpXor
	OpCmp
	OpSelect
	numOpKinds
)

var opNames = [...]string{
	OpNop:    "nop",
	OpConst:  "const",
	OpLoad:   "load",
	OpStore:  "store",
	OpAdd:    "add",
	OpSub:    "sub",
	OpMul:    "mul",
	OpDiv:    "div",
	OpShl:    "shl",
	OpShr:    "shr",
	OpAnd:    "and",
	OpOr:     "or",
	OpXor:    "xor",
	OpCmp:    "cmp",
	OpSelect: "select",
}

// String returns the mnemonic for k.
func (k OpKind) String() string {
	if int(k) < len(opNames) {
		return opNames[k]
	}
	return fmt.Sprintf("op(%d)", uint8(k))
}

// NumOpKinds reports how many distinct operation kinds exist; the GNN uses it
// to normalize the operation-type attribute.
func NumOpKinds() int { return int(numOpKinds) }

// IsMemory reports whether k accesses the on-chip memory. Memory ops are
// subject to the accelerator's memory-access policy (e.g. the "less memory
// connectivity" CGRA only lets left-column PEs execute them).
func (k OpKind) IsMemory() bool { return k == OpLoad || k == OpStore }

// ParseOpKind resolves a mnemonic such as "mul" to its OpKind.
func ParseOpKind(s string) (OpKind, error) {
	for k, name := range opNames {
		if name == s {
			return OpKind(k), nil
		}
	}
	return OpNop, fmt.Errorf("dfg: unknown operation %q", s)
}

// Node is a single operation in a DFG.
type Node struct {
	ID   int    // dense index into Graph.Nodes
	Name string // human-readable name, unique within the graph
	Op   OpKind
}

// Edge is a data dependency: the value produced by From is consumed by To.
type Edge struct {
	ID   int // dense index into Graph.Edges
	From int // producer node ID
	To   int // consumer node ID
}

// Graph is a dataflow graph. The zero value is an empty graph ready to use.
// Nodes and edges are stored in slices and addressed by dense IDs, which the
// mapper, the attributes generator and the GNN all rely on.
type Graph struct {
	Name  string
	Nodes []Node
	Edges []Edge

	succ [][]int // node ID -> IDs of successor nodes
	pred [][]int // node ID -> IDs of predecessor nodes

	outEdges [][]int // node ID -> IDs of outgoing edges
	inEdges  [][]int // node ID -> IDs of incoming edges

	byName map[string]int
}

// New returns an empty graph with the given name.
func New(name string) *Graph {
	return &Graph{Name: name, byName: make(map[string]int)}
}

// AddNode appends a node and returns its ID. Name must be unique; an empty
// name is replaced by "n<ID>".
func (g *Graph) AddNode(name string, op OpKind) int {
	id := len(g.Nodes)
	if name == "" {
		name = fmt.Sprintf("n%d", id)
	}
	if g.byName == nil {
		g.byName = make(map[string]int)
	}
	if _, dup := g.byName[name]; dup {
		panic(fmt.Sprintf("dfg: duplicate node name %q", name))
	}
	g.byName[name] = id
	g.Nodes = append(g.Nodes, Node{ID: id, Name: name, Op: op})
	g.succ = append(g.succ, nil)
	g.pred = append(g.pred, nil)
	g.outEdges = append(g.outEdges, nil)
	g.inEdges = append(g.inEdges, nil)
	return id
}

// AddEdge appends a data dependency from -> to and returns the edge ID.
// Parallel edges are allowed (a value used twice by the same consumer).
func (g *Graph) AddEdge(from, to int) int {
	if from < 0 || from >= len(g.Nodes) || to < 0 || to >= len(g.Nodes) {
		panic(fmt.Sprintf("dfg: edge (%d,%d) out of range", from, to))
	}
	id := len(g.Edges)
	g.Edges = append(g.Edges, Edge{ID: id, From: from, To: to})
	g.succ[from] = append(g.succ[from], to)
	g.pred[to] = append(g.pred[to], from)
	g.outEdges[from] = append(g.outEdges[from], id)
	g.inEdges[to] = append(g.inEdges[to], id)
	return id
}

// NodeByName returns the ID of the node with the given name.
func (g *Graph) NodeByName(name string) (int, bool) {
	id, ok := g.byName[name]
	return id, ok
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.Nodes) }

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int { return len(g.Edges) }

// Succ returns the successor node IDs of v. The slice is shared; callers must
// not modify it.
func (g *Graph) Succ(v int) []int { return g.succ[v] }

// Pred returns the predecessor node IDs of v. The slice is shared; callers
// must not modify it.
func (g *Graph) Pred(v int) []int { return g.pred[v] }

// OutEdges returns the IDs of edges leaving v.
func (g *Graph) OutEdges(v int) []int { return g.outEdges[v] }

// InEdges returns the IDs of edges entering v.
func (g *Graph) InEdges(v int) []int { return g.inEdges[v] }

// OutDegree returns the number of edges leaving v.
func (g *Graph) OutDegree(v int) int { return len(g.outEdges[v]) }

// InDegree returns the number of edges entering v.
func (g *Graph) InDegree(v int) int { return len(g.inEdges[v]) }

// MemOpCount returns the number of load/store nodes; the mapper uses it for
// the memory-constrained resource-minimal II.
func (g *Graph) MemOpCount() int {
	n := 0
	for _, nd := range g.Nodes {
		if nd.Op.IsMemory() {
			n++
		}
	}
	return n
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := New(g.Name)
	for _, n := range g.Nodes {
		c.AddNode(n.Name, n.Op)
	}
	for _, e := range g.Edges {
		c.AddEdge(e.From, e.To)
	}
	return c
}

// Validate checks structural invariants: IDs are dense and consistent,
// the graph is acyclic and weakly connected (unless empty), and every node
// name is unique. Every violation is reported as a *DefectError carrying a
// machine-readable Defect class alongside the descriptive message.
func (g *Graph) Validate() error {
	seen := make(map[string]int, len(g.Nodes))
	for i, n := range g.Nodes {
		if n.ID != i {
			return &DefectError{Kind: DefectBadID,
				Msg: fmt.Sprintf("dfg %s: node %q has ID %d at index %d", g.Name, n.Name, n.ID, i)}
		}
		if j, dup := seen[n.Name]; dup {
			return &DefectError{Kind: DefectDuplicateName,
				Msg: fmt.Sprintf("dfg %s: nodes %d and %d share the name %q", g.Name, j, i, n.Name)}
		}
		seen[n.Name] = i
	}
	return g.validateEdges()
}

// validateEdges is Validate past its node pass: edge IDs and endpoints,
// self loops, cycles and weak connectivity.
func (g *Graph) validateEdges() error {
	for i, e := range g.Edges {
		if e.ID != i {
			return &DefectError{Kind: DefectBadID,
				Msg: fmt.Sprintf("dfg %s: edge %d has ID %d", g.Name, i, e.ID)}
		}
		if e.From < 0 || e.From >= len(g.Nodes) || e.To < 0 || e.To >= len(g.Nodes) {
			return &DefectError{Kind: DefectDanglingEdge,
				Msg: fmt.Sprintf("dfg %s: edge %d endpoints (%d,%d) out of range", g.Name, i, e.From, e.To)}
		}
		if e.From == e.To {
			return &DefectError{Kind: DefectSelfLoop,
				Msg: fmt.Sprintf("dfg %s: self loop on node %d", g.Name, e.From)}
		}
	}
	if _, err := g.TopoOrder(); err != nil {
		return err
	}
	if len(g.Nodes) > 1 && !g.WeaklyConnected() {
		return &DefectError{Kind: DefectNotConnected,
			Msg: fmt.Sprintf("dfg %s: graph is not weakly connected", g.Name)}
	}
	return nil
}

// TopoOrder returns one topological order of the nodes (Kahn's algorithm with
// a deterministic smallest-ID tie break) or an error if the graph has a cycle.
func (g *Graph) TopoOrder() ([]int, error) {
	n := len(g.Nodes)
	indeg := make([]int, n)
	for v := range g.Nodes {
		indeg[v] = len(g.pred[v])
	}
	// A min-heap of ready IDs keeps the order deterministic across runs.
	// Appended in ascending order, the initial list is already a heap.
	ready := make([]int, 0, n)
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			ready = append(ready, v)
		}
	}
	order := make([]int, 0, n)
	for len(ready) > 0 {
		var v int
		v, ready = popMin(ready)
		order = append(order, v)
		for _, w := range g.succ[v] {
			indeg[w]--
			if indeg[w] == 0 {
				ready = pushHeap(ready, w)
			}
		}
	}
	if len(order) != n {
		return nil, &DefectError{Kind: DefectCycle, Msg: fmt.Sprintf("dfg %s: cycle detected", g.Name)}
	}
	return order, nil
}

// pushHeap adds v to the binary min-heap h.
func pushHeap(h []int, v int) []int {
	h = append(h, v)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	return h
}

// popMin removes and returns the smallest entry of the non-empty binary
// min-heap h.
func popMin(h []int) (int, []int) {
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	for i := 0; ; {
		c := 2*i + 1
		if c >= last {
			break
		}
		if c+1 < last && h[c+1] < h[c] {
			c++
		}
		if h[i] <= h[c] {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	return top, h
}

// WeaklyConnected reports whether the undirected version of g is connected.
func (g *Graph) WeaklyConnected() bool {
	n := len(g.Nodes)
	if n == 0 {
		return true
	}
	seen := make([]bool, n)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range g.succ[v] {
			if !seen[w] {
				seen[w] = true
				count++
				stack = append(stack, w)
			}
		}
		for _, w := range g.pred[v] {
			if !seen[w] {
				seen[w] = true
				count++
				stack = append(stack, w)
			}
		}
	}
	return count == n
}
