package dfg

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"strconv"
)

// AppendCanonical appends a canonical byte encoding of g's mapping-relevant
// structure to b and returns the extended slice: op kinds in node-index
// order and edges in edge-index order. Node and graph names are excluded —
// a mapping result (per-node PE/time arrays, per-edge routes) depends only
// on indices and op kinds, so two graphs that differ only in names
// canonicalize identically. Index order is preserved rather than sorted
// because result arrays are index-addressed: reordering nodes or edges
// yields a genuinely different response body.
//
// The encoding is "dfg/v1 n=<nodes> e=<edges>\n", then "n<i> <op>\n" per
// node and "e<i> <from>><to>\n" per edge. It is the content address of
// every cached mapping result, so it must never change.
//
//lisa:hotpath every inline-DFG /v1/map request and every built-in kernel shape's first key
func (g *Graph) AppendCanonical(b []byte) []byte {
	b = append(b, "dfg/v1 n="...)
	b = strconv.AppendInt(b, int64(len(g.Nodes)), 10)
	b = append(b, " e="...)
	b = strconv.AppendInt(b, int64(len(g.Edges)), 10)
	b = append(b, '\n')
	for i, n := range g.Nodes {
		b = append(b, 'n')
		b = strconv.AppendInt(b, int64(i), 10)
		b = append(b, ' ')
		b = append(b, n.Op.String()...)
		b = append(b, '\n')
	}
	for i, e := range g.Edges {
		b = append(b, 'e')
		b = strconv.AppendInt(b, int64(i), 10)
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(e.From), 10)
		b = append(b, '>')
		b = strconv.AppendInt(b, int64(e.To), 10)
		b = append(b, '\n')
	}
	return b
}

// WriteCanonical writes the canonical encoding (see AppendCanonical) to w.
func (g *Graph) WriteCanonical(w io.Writer) error {
	_, err := w.Write(g.AppendCanonical(nil))
	return err
}

// Fingerprint returns the hex SHA-256 of the canonical encoding — the
// content address of the graph's structure.
func (g *Graph) Fingerprint() string {
	sum := sha256.Sum256(g.AppendCanonical(nil))
	return hex.EncodeToString(sum[:])
}

// CanonicalString returns the canonical encoding as a string (for tests and
// debugging cache keys).
func (g *Graph) CanonicalString() string {
	return string(g.AppendCanonical(nil))
}
