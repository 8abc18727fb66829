//go:build race

package service

// raceEnabled reports whether the race detector is on; its instrumentation
// changes allocation counts, so allocation gates skip under it.
const raceEnabled = true
