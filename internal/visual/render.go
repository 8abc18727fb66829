package visual

import (
	"fmt"
	"io"

	"github.com/lisa-go/lisa/internal/arch"
	"github.com/lisa-go/lisa/internal/dfg"
	"github.com/lisa-go/lisa/internal/mapper"
)

// WriteDFG renders a layered drawing of the DFG: one row per ASAP level,
// nodes as colored boxes, dependencies as lines — the same style as the
// paper's Fig. 4.
func WriteDFG(w io.Writer, g *dfg.Graph) error {
	an := dfg.Analyze(g)
	const (
		boxW, boxH = 84, 30
		gapX, gapY = 18, 42
		margin     = 24
	)
	// Nodes per level, in ID order.
	levels := make([][]int, an.CriticalPath+1)
	for v := range g.Nodes {
		levels[an.ASAP[v]] = append(levels[an.ASAP[v]], v)
	}
	widest := 0
	for _, l := range levels {
		if len(l) > widest {
			widest = len(l)
		}
	}
	width := 2*margin + widest*(boxW+gapX)
	height := 2*margin + len(levels)*(boxH+gapY)
	c := newCanvas(width, height)

	pos := make(map[int][2]int, g.NumNodes())
	for lvl, nodes := range levels {
		rowW := len(nodes)*(boxW+gapX) - gapX
		x0 := (width - rowW) / 2
		for i, v := range nodes {
			x := x0 + i*(boxW+gapX)
			y := margin + lvl*(boxH+gapY)
			pos[v] = [2]int{x + boxW/2, y + boxH/2}
		}
	}
	for _, e := range g.Edges {
		p, q := pos[e.From], pos[e.To]
		c.line(p[0], p[1]+boxH/2, q[0], q[1]-boxH/2, "#888888", 1.2)
	}
	for lvl, nodes := range levels {
		rowW := len(nodes)*(boxW+gapX) - gapX
		x0 := (width - rowW) / 2
		for i, v := range nodes {
			x := x0 + i*(boxW+gapX)
			y := margin + lvl*(boxH+gapY)
			c.rect(x, y, boxW, boxH, opFill(g.Nodes[v].Op.String()), "black")
			c.text(x+boxW/2, y+13, 10, "middle", g.Nodes[v].Name)
			c.text(x+boxW/2, y+25, 9, "middle", g.Nodes[v].Op.String())
		}
	}
	c.text(margin, height-6, 12, "start", fmt.Sprintf("%s — %d nodes, %d edges", g.Name, g.NumNodes(), g.NumEdges()))
	return c.flush(w)
}

// WriteMapping renders a successful mapping on the time-extended array, the
// style of the paper's Fig. 5: columns are PEs, rows are absolute cycles,
// ops are colored cells, and every route is drawn hop by hop.
func WriteMapping(w io.Writer, ar arch.Arch, g *dfg.Graph, r *mapper.Result) error {
	if !r.OK {
		return fmt.Errorf("visual: result not OK")
	}
	rg := ar.BuildRGraph(r.II)
	const (
		cellW, cellH = 72, 30
		margin       = 60
	)
	maxT := 0
	for _, t := range r.Time {
		if t > maxT {
			maxT = t
		}
	}
	// Routes can extend past the last firing? No: they end at consumers.
	width := margin*2 + ar.NumPEs()*cellW
	height := margin*2 + (maxT+1)*cellH
	c := newCanvas(width, height)

	cellCenter := func(pe, t int) (int, int) {
		return margin + pe*cellW + cellW/2, margin + t*cellH + cellH/2
	}
	// Grid and headers.
	for pe := 0; pe < ar.NumPEs(); pe++ {
		row, col := ar.Coord(pe)
		x, _ := cellCenter(pe, 0)
		c.text(x, margin-10, 10, "middle", fmt.Sprintf("(%d,%d)", row, col))
	}
	for t := 0; t <= maxT; t++ {
		_, y := cellCenter(0, t)
		c.text(margin-34, y+4, 10, "middle", fmt.Sprintf("t=%d", t))
		for pe := 0; pe < ar.NumPEs(); pe++ {
			c.rect(margin+pe*cellW, margin+t*cellH, cellW, cellH, "none", "#dddddd")
		}
	}
	// Routes first (under the op cells).
	for i, e := range g.Edges {
		path := r.Routes[i]
		for j := 0; j+1 < len(path); j++ {
			p1 := rg.Nodes[path[j]].PE
			p2 := rg.Nodes[path[j+1]].PE
			t1 := r.Time[e.From] + j
			x1, y1 := cellCenter(p1, t1)
			x2, y2 := cellCenter(p2, t1+1)
			c.line(x1, y1, x2, y2, "#4477cc", 1.4)
		}
	}
	// Ops.
	for v := range g.Nodes {
		x := margin + r.PE[v]*cellW
		y := margin + r.Time[v]*cellH
		c.rect(x+2, y+2, cellW-4, cellH-4, opFill(g.Nodes[v].Op.String()), "black")
		cx, cy := cellCenter(r.PE[v], r.Time[v])
		c.text(cx, cy+4, 9, "middle", g.Nodes[v].Name)
	}
	c.text(margin, height-8, 12, "start",
		fmt.Sprintf("%s on %s — II=%d", g.Name, ar.Name(), r.II))
	return c.flush(w)
}

// Series is one named bar series of a grouped chart.
type Series struct {
	Name   string
	Values map[string]float64 // category -> value
	Fill   string
}

// WriteBarChart renders a grouped bar chart (Fig. 9/10/11 style): categories
// on the x axis, one bar per series per category. Missing values render as a
// small ✗ marker, the paper's "cannot map".
func WriteBarChart(w io.Writer, title, yLabel string, categories []string, series []Series) error {
	const (
		margin  = 54
		barW    = 14
		groupGp = 18
		chartH  = 220
	)
	groupW := len(series)*barW + groupGp
	width := margin*2 + len(categories)*groupW
	height := chartH + margin*2
	c := newCanvas(width, height)

	maxV := 0.0
	for _, s := range series {
		for _, v := range s.Values {
			if v > maxV {
				maxV = v
			}
		}
	}
	if maxV == 0 {
		maxV = 1
	}
	baseY := margin + chartH
	c.line(margin, baseY, width-margin/2, baseY, "black", 1.5)
	c.line(margin, margin/2, margin, baseY, "black", 1.5)
	c.text(margin-6, margin/2+8, 10, "end", fmt.Sprintf("%.1f", maxV))
	c.text(16, margin+chartH/2, 11, "middle", yLabel)

	fills := []string{"#6699cc", "#dd8866", "#66bb77", "#bb77cc", "#ccaa44"}
	for ci, cat := range categories {
		gx := margin + ci*groupW + groupGp/2
		for si, s := range series {
			fill := s.Fill
			if fill == "" {
				fill = fills[si%len(fills)]
			}
			x := gx + si*barW
			v, ok := s.Values[cat]
			if !ok || v <= 0 {
				c.text(x+barW/2, baseY-4, 12, "middle", "x")
				continue
			}
			h := int(float64(chartH) * v / maxV)
			c.rect(x, baseY-h, barW-2, h, fill, "black")
		}
		c.text(gx+len(series)*barW/2, baseY+14, 10, "middle", cat)
	}
	// Legend.
	lx := margin
	for si, s := range series {
		fill := s.Fill
		if fill == "" {
			fill = fills[si%len(fills)]
		}
		c.rect(lx, 8, 12, 12, fill, "black")
		c.text(lx+16, 18, 11, "start", s.Name)
		lx += 16 + 8*len(s.Name) + 24
	}
	c.text(width/2, height-6, 12, "middle", title)
	return c.flush(w)
}
