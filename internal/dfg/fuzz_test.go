package dfg

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// Fuzz targets: the parsers must never panic and anything they accept must
// be a valid graph. `go test` runs the seed corpus (the f.Add seeds and
// testdata/fuzz); `go test -fuzz=FuzzX` explores further.

func FuzzParseDOT(f *testing.F) {
	f.Add("digraph d { a -> b; }")
	f.Add(`digraph "g" { n0 [label="x\nmul"]; n1 [opcode=load]; n1 -> n0; }`)
	f.Add("digraph{a->b;b->c;a->c}")
	f.Add("not a graph at all")
	f.Add("digraph d { a [opcode=\"; -> ]\"]; a -> b; }")
	g := New("seed")
	x := g.AddNode("x", OpMul)
	y := g.AddNode("y", OpStore)
	g.AddEdge(x, y)
	var buf bytes.Buffer
	_ = g.WriteDOT(&buf)
	f.Add(buf.String())

	f.Fuzz(func(t *testing.T, src string) {
		g, err := ParseDOT(strings.NewReader(src))
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted invalid graph: %v", err)
		}
	})
}

// FuzzReadJSON is also differential: whatever the strict pass takes must be
// valid JSON that encoding/json decodes to a document building the same
// graph (name, node names and canonical bytes) or failing with the same
// error.
func FuzzReadJSON(f *testing.F) {
	f.Add(`{"name":"x","nodes":[{"name":"a","op":"load"},{"name":"b","op":"store"}],"edges":[[0,1]]}`)
	f.Add(`{"name":"x","nodes":[],"edges":[]}`)
	f.Add(`{`)
	f.Add(`{"name":"x","nodes":[{"name":"a","op":"add"}],"edges":[[0,0]]}`)
	f.Add(`{"name":"x","nodes":[{"name":"a","op":"add"}],"edges":[[-1,0]]}`)
	f.Add(`{"name":"x","nodes":[{"name":"a","op":"add"}],"edges":[[0,9223372036854775808]]}`)
	f.Fuzz(func(t *testing.T, src string) {
		g, err := ReadJSON(strings.NewReader(src))
		if err == nil {
			if err := g.Validate(); err != nil {
				t.Fatalf("accepted invalid graph: %v", err)
			}
		}
		strict, ok := decodeStrict(src)
		if !ok {
			return
		}
		if !json.Valid([]byte(src)) {
			t.Fatalf("the strict pass took invalid JSON")
		}
		var ref jsonGraph
		if err := json.NewDecoder(strings.NewReader(src)).Decode(&ref); err != nil {
			t.Fatalf("the strict pass took a document encoding/json rejects: %v", err)
		}
		gs, errS := strict.build()
		gr, errR := ref.build()
		if errS != nil || errR != nil {
			if errS == nil || errR == nil || errS.Error() != errR.Error() {
				t.Fatalf("strict pass error %v, encoding/json path error %v", errS, errR)
			}
			return
		}
		if gs.Name != gr.Name || !bytes.Equal(gs.AppendCanonical(nil), gr.AppendCanonical(nil)) {
			t.Fatalf("strict pass built %q %q, encoding/json path %q %q",
				gs.Name, gs.AppendCanonical(nil), gr.Name, gr.AppendCanonical(nil))
		}
		for i := range gs.Nodes {
			if gs.Nodes[i].Name != gr.Nodes[i].Name {
				t.Fatalf("node %d: strict pass name %q, encoding/json path %q", i, gs.Nodes[i].Name, gr.Nodes[i].Name)
			}
		}
	})
}
