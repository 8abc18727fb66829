// Package visual renders DFGs, mappings and experiment results as SVG —
// the reproduction's counterpart of the paper artifact's plotting scripts.
// Everything is generated with the standard library only.
package visual

import (
	"fmt"
	"io"
	"strings"
)

// canvas accumulates SVG elements.
type canvas struct {
	w, h int
	b    strings.Builder
}

func newCanvas(w, h int) *canvas {
	c := &canvas{w: w, h: h}
	fmt.Fprintf(&c.b,
		`<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n",
		w, h, w, h)
	c.b.WriteString(`<rect width="100%" height="100%" fill="white"/>` + "\n")
	return c
}

func (c *canvas) rect(x, y, w, h int, fill string, stroke string) {
	fmt.Fprintf(&c.b, `<rect x="%d" y="%d" width="%d" height="%d" fill="%s" stroke="%s"/>`+"\n",
		x, y, w, h, fill, stroke)
}

func (c *canvas) line(x1, y1, x2, y2 int, stroke string, width float64) {
	fmt.Fprintf(&c.b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="%s" stroke-width="%.1f"/>`+"\n",
		x1, y1, x2, y2, stroke, width)
}

func (c *canvas) text(x, y int, size int, anchor, s string) {
	fmt.Fprintf(&c.b,
		`<text x="%d" y="%d" font-size="%d" font-family="monospace" text-anchor="%s">%s</text>`+"\n",
		x, y, size, anchor, escape(s))
}

func (c *canvas) flush(w io.Writer) error {
	c.b.WriteString("</svg>\n")
	_, err := io.WriteString(w, c.b.String())
	return err
}

func escape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}

// opFill maps an op mnemonic to a pastel fill color.
func opFill(op string) string {
	switch op {
	case "load":
		return "#cfe8ff"
	case "store":
		return "#ffd6cc"
	case "mul", "div":
		return "#d8f5d0"
	case "const":
		return "#eeeeee"
	case "cmp", "select":
		return "#f5e6ff"
	default:
		return "#fff3bf"
	}
}
