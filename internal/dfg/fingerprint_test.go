package dfg

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
)

func fpGraph(name string, nodeNames [2]string) *Graph {
	g := New(name)
	a := g.AddNode(nodeNames[0], OpLoad)
	b := g.AddNode(nodeNames[1], OpAdd)
	g.AddEdge(a, b)
	return g
}

func TestFingerprintIgnoresNames(t *testing.T) {
	a := fpGraph("one", [2]string{"x", "y"})
	b := fpGraph("two", [2]string{"p", "q"})
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("fingerprint depends on node/graph names")
	}
}

func TestFingerprintSeesStructure(t *testing.T) {
	a := fpGraph("g", [2]string{"x", "y"})

	// Different op kind.
	b := New("g")
	n0 := b.AddNode("x", OpLoad)
	n1 := b.AddNode("y", OpMul)
	b.AddEdge(n0, n1)
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("fingerprint blind to op kinds")
	}

	// Extra edge.
	c := New("g")
	n0 = c.AddNode("x", OpLoad)
	n1 = c.AddNode("y", OpAdd)
	c.AddEdge(n0, n1)
	c.AddEdge(n0, n1)
	if a.Fingerprint() == c.Fingerprint() {
		t.Fatal("fingerprint blind to edge multiplicity")
	}

	// Node order matters: result arrays are index-addressed.
	d := New("g")
	n1 = d.AddNode("y", OpAdd)
	n0 = d.AddNode("x", OpLoad)
	d.AddEdge(n0, n1)
	if a.Fingerprint() == d.Fingerprint() {
		t.Fatal("fingerprint blind to node order")
	}
}

func TestCanonicalStringShape(t *testing.T) {
	g := fpGraph("g", [2]string{"x", "y"})
	s := g.CanonicalString()
	if !strings.HasPrefix(s, "dfg/v1 n=2 e=1\n") {
		t.Fatalf("canonical header wrong: %q", s)
	}
	if strings.Contains(s, "x") || strings.Contains(s, "g") && strings.Contains(s, "\ng\n") {
		t.Fatalf("canonical form leaks names: %q", s)
	}
	if g.CanonicalString() != s {
		t.Fatal("canonical encoding not stable across calls")
	}
}

// fprintfCanonical is the original fmt-based canonical encoder, kept as the
// oracle: every cached mapping result is addressed by these exact bytes, so
// AppendCanonical may never drift from them.
func fprintfCanonical(w io.Writer, g *Graph) {
	fmt.Fprintf(w, "dfg/v1 n=%d e=%d\n", len(g.Nodes), len(g.Edges))
	for i, n := range g.Nodes {
		fmt.Fprintf(w, "n%d %s\n", i, n.Op)
	}
	for i, e := range g.Edges {
		fmt.Fprintf(w, "e%d %d>%d\n", i, e.From, e.To)
	}
}

func TestAppendCanonicalMatchesFprintfEncoding(t *testing.T) {
	check := func(t *testing.T, g *Graph) {
		t.Helper()
		var want bytes.Buffer
		fprintfCanonical(&want, g)
		if got := g.AppendCanonical(nil); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("AppendCanonical drifted from the fmt encoding:\n got %q\nwant %q", got, want.Bytes())
		}
		// Appending must extend, never clobber, what the buffer holds.
		prefix := []byte("prefix\n")
		if got := g.AppendCanonical(append([]byte(nil), prefix...)); !bytes.Equal(got, append(prefix, want.Bytes()...)) {
			t.Fatal("AppendCanonical does not append to its argument")
		}
		var w bytes.Buffer
		if err := g.WriteCanonical(&w); err != nil || !bytes.Equal(w.Bytes(), want.Bytes()) {
			t.Fatalf("WriteCanonical = %q, %v", w.Bytes(), err)
		}
	}
	rng := rand.New(rand.NewSource(5))
	cfg := DefaultRandomConfig()
	cfg.MaxNodes = 120 // multi-digit indices on both sides of every edge
	for i := 0; i < 300; i++ {
		check(t, Random(rng, cfg, fmt.Sprintf("r%d", i)))
	}
	// The empty graph and an out-of-range op kind (whose mnemonic falls
	// back to "op(N)") take the rarely exercised paths.
	check(t, New("empty"))
	odd := New("odd")
	odd.AddNode("x", OpKind(200))
	odd.AddNode("y", OpSelect)
	odd.AddEdge(0, 1)
	check(t, odd)
}
