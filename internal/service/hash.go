package service

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"

	"github.com/lisa-go/lisa/internal/engine"
	"github.com/lisa-go/lisa/internal/mapper"
	"github.com/lisa-go/lisa/internal/store"
)

// keyStackBytes sizes cacheKey's stack buffer: the header plus the canonical
// bytes of every built-in kernel up to the memoized unroll factor fit, so a
// named-kernel key allocates only its hex string. Larger (inline) DFGs spill
// to the heap once per key.
const keyStackBytes = 4608

// cacheKey computes the content address of a mapping request: the hex
// SHA-256 of a header and the request's canonical DFG bytes, canon (see
// dfg.(*Graph).AppendCanonical; kernels.(*Kernel).Canonical memoizes them
// for named kernels, so a hit never builds a graph). The header holds everything else
// the response body is a function of: the architecture name, the engine,
// the request deadline (a time budget can cut the II sweep short, so
// different budgets may legitimately produce different results and must not
// share an entry), the request's kernel name (inline DFGs have none), the
// *normalized* annealer options (zero knobs resolved to their defaults, so
// "MaxMoves: 0" and the explicit default share an entry) with the seed, and
// whether the body carries the utilization report.
//
// The header's first line is store.Format, which names the body format: it
// moves to a new version whenever equal requests start getting different
// body bytes (v2 dropped the portfolio's hopLowerBound), and the store drops
// entries of any other format when it opens, so no stored body outlives its
// format.
//
// The header is built with strconv appends into a stack buffer and hashed
// with one sha256.Sum256 call. Its bytes are exactly those the original
// fmt.Fprintf encoding produced (%d → AppendInt, %g → AppendFloat 'g' -1),
// so keys — and with them every L1 entry, store file and peer's key — are
// unchanged; the stats line is the one addition, and it appears only when
// stats is set, so plain requests keep their keys.
//
//lisa:hotpath every /v1/map request and batch item keys here before the L1 lookup; a hit must not pay for fmt or a hash.Hash
func cacheKey(canon []byte, kernel, archName string, eng engine.Name, opts mapper.Options, deadlineMS int64, stats bool) string {
	var stack [keyStackBytes]byte
	b := stack[:0]
	b = append(b, store.Format+"\narch="...)
	b = append(b, archName...)
	b = append(b, "\nengine="...)
	b = append(b, eng...)
	b = append(b, "\ndeadlineMs="...)
	b = strconv.AppendInt(b, deadlineMS, 10)
	b = append(b, '\n')
	if kernel != "" {
		// The body names the kernel it answers, and distinct kernels can
		// share a canonical DFG (gemm and syrk do), so a named request keys
		// on its name too. Inline DFGs keep the plain content address.
		b = append(b, "kernel="...)
		b = append(b, kernel...)
		b = append(b, '\n')
	}
	o := opts.Normalized()
	// Restarts joins the key because the portfolio width changes the result
	// (normalization maps 0 → 1, so "no restarts requested" and an explicit
	// K=1 share the single-chain entry). Workers stays out: it can never
	// change the bytes, only the wall-clock.
	b = append(b, "opts=seed:"...)
	b = strconv.AppendInt(b, o.Seed, 10)
	b = append(b, ",maxMoves:"...)
	b = strconv.AppendInt(b, int64(o.MaxMoves), 10)
	b = append(b, ",movesPerTemp:"...)
	b = strconv.AppendInt(b, int64(o.MovesPerTemp), 10)
	b = append(b, ",initTemp:"...)
	b = strconv.AppendFloat(b, o.InitTemp, 'g', -1, 64)
	b = append(b, ",cool:"...)
	b = strconv.AppendFloat(b, o.Cool, 'g', -1, 64)
	b = append(b, ",alpha:"...)
	b = strconv.AppendFloat(b, o.Alpha, 'g', -1, 64)
	b = append(b, ",maxII:"...)
	b = strconv.AppendInt(b, int64(o.MaxII), 10)
	b = append(b, ",restarts:"...)
	b = strconv.AppendInt(b, int64(o.Restarts), 10)
	b = append(b, '\n')
	if stats {
		// "stats": true adds the utilization report to the body, so it is a
		// different answer.
		b = append(b, "stats=1\n"...)
	}
	b = append(b, canon...)
	sum := sha256.Sum256(b)
	var key [2 * sha256.Size]byte
	hex.Encode(key[:], sum[:])
	return string(key[:])
}
