package fix

import "time"

// Map shares its name with the allowlisted internal/mapper deadline site:
// not flagged.
func Map() int64 {
	return time.Now().UnixNano()
}

// notAllowlisted reads the clock outside the allowlist: both calls flagged.
func notAllowlisted() time.Duration {
	start := time.Now()
	return time.Since(start)
}

// suppressedClock carries an annotation: not flagged.
func suppressedClock() time.Time {
	return time.Now() //lisa:vet-ok wallclock debug-only timestamp, never serialized
}

// sleeper delays outside the allowlist: flagged — a sleep shifts every
// deadline-relative outcome without appearing in any Result.
func sleeper() {
	time.Sleep(time.Millisecond)
}
