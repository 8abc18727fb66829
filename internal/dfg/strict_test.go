package dfg_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/lisa-go/lisa/internal/dfg"
	"github.com/lisa-go/lisa/internal/kernels"
)

// corpus returns the graphs the strict-pass and topological-order tests
// run over: the 16 built-in kernels at unroll 1 to 4 and 300 §V random
// DFGs.
func corpus() []*dfg.Graph {
	var gs []*dfg.Graph
	for _, name := range append(kernels.Names(), kernels.ExtendedNames()...) {
		for f := 1; f <= 4; f++ {
			gs = append(gs, dfg.Unroll(kernels.MustByName(name), f))
		}
	}
	for seed := int64(0); seed < 300; seed++ {
		gs = append(gs, dfg.Random(rand.New(rand.NewSource(seed)), dfg.DefaultRandomConfig(), fmt.Sprintf("rnd%d", seed)))
	}
	return gs
}

// TestStrictPassTakesWriteJSON: every document WriteJSON writes for the
// corpus, indented as written and compacted, is taken by the strict pass,
// so the fast path cannot silently stop being taken, and reads back to the
// same graph.
func TestStrictPassTakesWriteJSON(t *testing.T) {
	for _, g := range corpus() {
		var indented, compact bytes.Buffer
		if err := g.WriteJSON(&indented); err != nil {
			t.Fatal(err)
		}
		if err := json.Compact(&compact, indented.Bytes()); err != nil {
			t.Fatal(err)
		}
		for _, doc := range []string{indented.String(), compact.String()} {
			if !dfg.StrictAccepts(doc) {
				t.Fatalf("%s: the strict pass declined WriteJSON's document:\n%s", g.Name, doc)
			}
			back, err := dfg.ReadJSON(bytes.NewReader([]byte(doc)))
			if err != nil {
				t.Fatalf("%s: %v", g.Name, err)
			}
			if back.Name != g.Name || !reflect.DeepEqual(back.Nodes, g.Nodes) || !reflect.DeepEqual(back.Edges, g.Edges) {
				t.Fatalf("%s: the document read back to a different graph", g.Name)
			}
			for v := range g.Nodes {
				if !slices.Equal(back.Succ(v), g.Succ(v)) || !slices.Equal(back.Pred(v), g.Pred(v)) ||
					!slices.Equal(back.OutEdges(v), g.OutEdges(v)) || !slices.Equal(back.InEdges(v), g.InEdges(v)) {
					t.Fatalf("%s: node %d's adjacency differs after the round trip", g.Name, v)
				}
			}
		}
	}
}

// TestReadJSONGraphGrows: a graph read by ReadJSON carves its adjacency
// lists from shared arrays, each list's capacity its degree, so edges
// added afterwards must not overwrite a neighbour's list.
func TestReadJSONGraphGrows(t *testing.T) {
	g, err := dfg.ReadJSON(bytes.NewReader([]byte(
		`{"name":"g","nodes":[{"name":"a","op":"load"},{"name":"b","op":"load"},{"name":"c","op":"add"}],"edges":[[0,2],[1,2]]}`)))
	if err != nil {
		t.Fatal(err)
	}
	d := g.AddNode("d", dfg.OpStore)
	g.AddEdge(0, d)
	g.AddEdge(2, d)
	want := [][]int{{2, 3}, {2}, {3}, nil}
	for v, w := range want {
		if got := g.Succ(v); !slices.Equal(got, w) {
			t.Fatalf("Succ(%d) = %v, want %v", v, got, w)
		}
	}
	if got := g.Pred(d); !reflect.DeepEqual(got, []int{0, 2}) {
		t.Fatalf("Pred(d) = %v, want [0 2]", got)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestTopoOrderMatchesOracle: the heap gives the order the sorted ready
// list gave on the corpus, and the same error on a cyclic graph.
func TestTopoOrderMatchesOracle(t *testing.T) {
	for _, g := range corpus() {
		got, err := g.TopoOrder()
		want, werr := g.TopoOrderSorted()
		if err != nil || werr != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: TopoOrder = %v, %v; oracle %v, %v", g.Name, got, err, want, werr)
		}
	}
	cyc := dfg.New("cyc")
	for i := 0; i < 5; i++ {
		cyc.AddNode("", dfg.OpAdd)
	}
	cyc.AddEdge(0, 1)
	cyc.AddEdge(1, 2)
	cyc.AddEdge(2, 3)
	cyc.AddEdge(3, 1)
	cyc.AddEdge(0, 4)
	_, err := cyc.TopoOrder()
	_, werr := cyc.TopoOrderSorted()
	if err == nil || werr == nil || err.Error() != werr.Error() {
		t.Fatalf("cyclic graph: TopoOrder error %v, oracle %v", err, werr)
	}
}

// BenchmarkReadJSON decodes the corpus's unrolled kernels and random DFGs
// as compact documents, the form perfbench's labels workload sends inline.
func BenchmarkReadJSON(b *testing.B) {
	var docs [][]byte
	for _, g := range corpus() {
		var indented, compact bytes.Buffer
		if err := g.WriteJSON(&indented); err != nil {
			b.Fatal(err)
		}
		if err := json.Compact(&compact, indented.Bytes()); err != nil {
			b.Fatal(err)
		}
		docs = append(docs, compact.Bytes())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dfg.ReadJSON(bytes.NewReader(docs[i%len(docs)])); err != nil {
			b.Fatal(err)
		}
	}
}
