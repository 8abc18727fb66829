// Package randfix is the globalrand fixture.
package randfix

import "math/rand"

// Global draws from the process-global stream: flagged.
func Global() int {
	return rand.Intn(10)
}

// GlobalPair flags each call site.
func GlobalPair(xs []int) float64 {
	rand.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	return rand.Float64()
}

// Injected uses a per-task generator: not flagged.
func Injected(r *rand.Rand) int {
	return r.Intn(10)
}

// Construct builds a private generator: constructors are not flagged.
func Construct(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// Suppressed carries an annotation: not flagged.
func Suppressed() int {
	//lisa:vet-ok globalrand retry jitter on an error path; never reaches a result
	return rand.Intn(3)
}
