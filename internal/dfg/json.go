package dfg

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"github.com/lisa-go/lisa/internal/strictjson"
)

// jsonGraph is the interchange schema for DFGs.
type jsonGraph struct {
	Name  string     `json:"name"`
	Nodes []jsonNode `json:"nodes"`
	Edges [][2]int   `json:"edges"`
}

type jsonNode struct {
	Name string `json:"name"`
	Op   string `json:"op"`
}

// WriteJSON serializes g as JSON.
func (g *Graph) WriteJSON(w io.Writer) error {
	jg := jsonGraph{Name: g.Name}
	for _, n := range g.Nodes {
		jg.Nodes = append(jg.Nodes, jsonNode{Name: n.Name, Op: n.Op.String()})
	}
	for _, e := range g.Edges {
		jg.Edges = append(jg.Edges, [2]int{e.From, e.To})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&jg)
}

// ReadJSON reads r to EOF, deserializes the DFG document it holds, as
// written by WriteJSON, and validates it. Every rejection — malformed JSON,
// unknown ops, duplicate names, dangling edges, structural defects — is a
// *DefectError, never a panic: this is the parse path for untrusted request
// bodies.
//
// A document in the shape WriteJSON writes, indented or compacted, is
// decoded in one strict pass (decodeStrict). Any other document goes to
// encoding/json, which decodes the first JSON value and ignores what
// follows it; the strict pass only takes documents that encoding/json
// decodes to the same values, so both reach the same graph and every
// rejection keeps encoding/json's text.
func ReadJSON(r io.Reader) (*Graph, error) {
	var sb strings.Builder
	if _, err := io.Copy(&sb, r); err != nil {
		return nil, badJSON(err)
	}
	src := sb.String()
	jg, ok := decodeStrict(src)
	if !ok {
		jg = jsonGraph{}
		if err := json.NewDecoder(strings.NewReader(src)).Decode(&jg); err != nil {
			return nil, badJSON(err)
		}
	}
	return jg.build()
}

func badJSON(err error) error {
	return &DefectError{Kind: DefectBadJSON, Msg: fmt.Sprintf("dfg: decode JSON: %v", err)}
}

// decodeStrict decodes src when it is one object with at most one each of
// the keys "name", "nodes" and "edges", exactly so spelled, and only
// whitespace after it: name a plain string (printable ASCII, no escapes),
// nodes an array of objects with at most one each of the plain-string
// members "name" and "op", edges an array of two-element arrays of
// decimal integers that fit an int. ok is false for anything else.
func decodeStrict(src string) (jsonGraph, bool) {
	var jg jsonGraph
	s := strictjson.New(src)
	var seen [3]bool // name, nodes, edges
	for first := true; ; first = false {
		key, done, ok := s.Key(first)
		if !ok {
			return jg, false
		}
		if done {
			break
		}
		switch {
		case key == "name" && !seen[0]:
			seen[0] = true
			jg.Name, ok = s.Plain()
		case key == "nodes" && !seen[1]:
			seen[1] = true
			jg.Nodes, ok = strictNodes(s)
		case key == "edges" && !seen[2]:
			seen[2] = true
			jg.Edges, ok = strictEdges(s)
		default:
			ok = false
		}
		if !ok {
			return jg, false
		}
	}
	return jg, s.End()
}

// strictNodes decodes decodeStrict's nodes array.
func strictNodes(s *strictjson.Scanner) ([]jsonNode, bool) {
	var nodes []jsonNode
	for first := true; ; first = false {
		done, ok := s.Elem(first)
		if !ok {
			return nil, false
		}
		if done {
			return nodes, true
		}
		var n jsonNode
		var name, op bool
		for first := true; ; first = false {
			key, done, ok := s.Key(first)
			if !ok {
				return nil, false
			}
			if done {
				break
			}
			switch {
			case key == "name" && !name:
				name = true
				n.Name, ok = s.Plain()
			case key == "op" && !op:
				op = true
				n.Op, ok = s.Plain()
			default:
				ok = false
			}
			if !ok {
				return nil, false
			}
		}
		nodes = append(nodes, n)
	}
}

// strictEdges decodes decodeStrict's edges array.
func strictEdges(s *strictjson.Scanner) ([][2]int, bool) {
	var edges [][2]int
	for first := true; ; first = false {
		done, ok := s.Elem(first)
		if !ok {
			return nil, false
		}
		if done {
			return edges, true
		}
		var from, to int64
		ok1 := s.Next('[')
		if ok1 {
			from, ok1 = s.Int(strconv.IntSize)
		}
		ok2 := ok1 && s.Next(',')
		if ok2 {
			to, ok2 = s.Int(strconv.IntSize)
		}
		if !ok2 || !s.Next(']') {
			return nil, false
		}
		edges = append(edges, [2]int{int(from), int(to)})
	}
}

// build turns a decoded document into a validated graph. Defects surface in
// document order: node ops and names, then edge endpoints, then Validate's
// structural checks. The node count sizes the name index and the node
// slice, and the degrees size one backing array per adjacency relation,
// carved so each node's list has its degree as capacity: an AddEdge on the
// result copies a full list instead of overwriting its neighbour's.
func (jg *jsonGraph) build() (*Graph, error) {
	n := len(jg.Nodes)
	g := &Graph{Name: jg.Name, Nodes: make([]Node, n), byName: make(map[string]int, n)}
	for i, nd := range jg.Nodes {
		op, err := ParseOpKind(nd.Op)
		if err != nil {
			return nil, &DefectError{Kind: DefectUnknownOp,
				Msg: fmt.Sprintf("dfg: node %d: %v", i, err)}
		}
		name := nd.Name
		if name == "" {
			name = fmt.Sprintf("n%d", i)
		}
		if j, dup := g.byName[name]; dup {
			return nil, &DefectError{Kind: DefectDuplicateName,
				Msg: fmt.Sprintf("dfg: nodes %d and %d share the name %q", j, i, name)}
		}
		g.byName[name] = i
		g.Nodes[i] = Node{ID: i, Name: name, Op: op}
	}
	deg := make([]int, 2*n) // out-degrees, then in-degrees
	for i, e := range jg.Edges {
		if e[0] < 0 || e[0] >= n || e[1] < 0 || e[1] >= n {
			return nil, &DefectError{Kind: DefectDanglingEdge,
				Msg: fmt.Sprintf("dfg: edge %d out of range", i)}
		}
		deg[e[0]]++
		deg[n+e[1]]++
	}
	m := len(jg.Edges)
	g.Edges = make([]Edge, m)
	g.succ, g.outEdges = carve(deg[:n], m), carve(deg[:n], m)
	g.pred, g.inEdges = carve(deg[n:], m), carve(deg[n:], m)
	for i, e := range jg.Edges {
		from, to := e[0], e[1]
		g.Edges[i] = Edge{ID: i, From: from, To: to}
		g.succ[from] = append(g.succ[from], to)
		g.outEdges[from] = append(g.outEdges[from], i)
		g.pred[to] = append(g.pred[to], from)
		g.inEdges[to] = append(g.inEdges[to], i)
	}
	// Node IDs are dense and names unique by construction, so Validate's
	// node pass is skipped.
	if err := g.validateEdges(); err != nil {
		return nil, err
	}
	return g, nil
}

// carve cuts one backing array of total entries into one empty list per
// node whose capacity is the node's degree.
func carve(deg []int, total int) [][]int {
	back := make([]int, total)
	lists := make([][]int, len(deg))
	off := 0
	for v, d := range deg {
		lists[v] = back[off : off : off+d]
		off += d
	}
	return lists
}
