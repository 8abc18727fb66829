package service

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"github.com/lisa-go/lisa/internal/dfg"
	"github.com/lisa-go/lisa/internal/engine"
	"github.com/lisa-go/lisa/internal/mapper"
)

// cacheKey computes the content address of a mapping request: the hex
// SHA-256 of a canonical encoding of everything the response body is a
// function of — the normalized DFG structure (names excluded, see
// dfg.WriteCanonical), the request's kernel name (empty for inline DFGs),
// the architecture name, the engine, the *normalized* annealer options
// (zero knobs resolved to their defaults, so "MaxMoves: 0" and the explicit
// default share an entry), the seed, and the request deadline (a time
// budget can cut the II sweep short, so different budgets may legitimately
// produce different results and must not share an entry).
func cacheKey(g *dfg.Graph, kernel, archName string, eng engine.Name, opts mapper.Options, deadlineMS int64) string {
	h := sha256.New()
	fmt.Fprintf(h, "lisa-serve/v1\narch=%s\nengine=%s\ndeadlineMs=%d\n", archName, eng, deadlineMS)
	if kernel != "" {
		// The body names the kernel it answers, and distinct kernels can
		// share a canonical DFG (gemm and syrk do), so a named request keys
		// on its name too. Inline DFGs keep the plain content address.
		fmt.Fprintf(h, "kernel=%s\n", kernel)
	}
	o := opts.Normalized()
	// Restarts joins the key because the portfolio width changes the result
	// (normalization maps 0 → 1, so "no restarts requested" and an explicit
	// K=1 share the single-chain entry). Workers stays out: it can never
	// change the bytes, only the wall-clock.
	fmt.Fprintf(h, "opts=seed:%d,maxMoves:%d,movesPerTemp:%d,initTemp:%g,cool:%g,alpha:%g,maxII:%d,restarts:%d\n",
		o.Seed, o.MaxMoves, o.MovesPerTemp, o.InitTemp, o.Cool, o.Alpha, o.MaxII, o.Restarts)
	_ = g.WriteCanonical(h) // WriteCanonical only fails if the writer does; hash.Hash never errors
	return hex.EncodeToString(h.Sum(nil))
}
