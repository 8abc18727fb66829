package visual

import (
	"bytes"
	"encoding/xml"
	"strings"
	"testing"

	"github.com/lisa-go/lisa/internal/arch"
	"github.com/lisa-go/lisa/internal/kernels"
	"github.com/lisa-go/lisa/internal/mapper"
)

// wellFormed checks the output parses as XML (catches unescaped text and
// unclosed tags).
func wellFormed(t *testing.T, data []byte) {
	t.Helper()
	dec := xml.NewDecoder(bytes.NewReader(data))
	for {
		_, err := dec.Token()
		if err != nil {
			if err.Error() == "EOF" {
				return
			}
			t.Fatalf("SVG not well-formed: %v\n%s", err, data)
		}
	}
}

func TestWriteDFG(t *testing.T) {
	g := kernels.MustByName("gemm")
	var buf bytes.Buffer
	if err := WriteDFG(&buf, g); err != nil {
		t.Fatal(err)
	}
	wellFormed(t, buf.Bytes())
	s := buf.String()
	for _, n := range g.Nodes {
		if !strings.Contains(s, n.Name) {
			t.Errorf("node %q missing from drawing", n.Name)
		}
	}
	// One line per edge at minimum.
	if strings.Count(s, "<line") < g.NumEdges() {
		t.Error("edge lines missing")
	}
}

func TestWriteMapping(t *testing.T) {
	ar := arch.NewBaseline4x4()
	g := kernels.MustByName("syrk")
	res, err := mapper.Map(ar, g, mapper.AlgLISA, nil, mapper.Options{Seed: 1, MaxMoves: 1500})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatal("map failed")
	}
	var buf bytes.Buffer
	if err := WriteMapping(&buf, ar, g, &res); err != nil {
		t.Fatal(err)
	}
	wellFormed(t, buf.Bytes())
	if !strings.Contains(buf.String(), "II=") {
		t.Error("caption missing")
	}
	// Failed results are rejected.
	bad := mapper.Result{}
	if err := WriteMapping(&buf, ar, g, &bad); err == nil {
		t.Error("failed result must be rejected")
	}
}

func TestWriteBarChart(t *testing.T) {
	var buf bytes.Buffer
	err := WriteBarChart(&buf, "Fig9x", "II", []string{"gemm", "atax", "bicg"},
		[]Series{
			{Name: "ILP", Values: map[string]float64{"gemm": 4, "atax": 0}},
			{Name: "SA", Values: map[string]float64{"gemm": 5, "atax": 5, "bicg": 3}},
			{Name: "LISA", Values: map[string]float64{"gemm": 2, "atax": 2, "bicg": 3}},
		})
	if err != nil {
		t.Fatal(err)
	}
	wellFormed(t, buf.Bytes())
	s := buf.String()
	for _, want := range []string{"Fig9x", "ILP", "SA", "LISA", "gemm"} {
		if !strings.Contains(s, want) {
			t.Errorf("chart missing %q", want)
		}
	}
	// The unmappable combination renders as an x marker, not a bar.
	if !strings.Contains(s, ">x</text>") {
		t.Error("missing cannot-map marker")
	}
}

func TestEscape(t *testing.T) {
	if escape(`a<b>&"c"`) != "a&lt;b&gt;&amp;&quot;c&quot;" {
		t.Fatalf("escape wrong: %q", escape(`a<b>&"c"`))
	}
}
