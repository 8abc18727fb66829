// Package suppressfix seeds the suppression-comment corner cases. Only
// okSuppressed carries a well-formed //lisa:vet-ok (analyzer + reason): its
// maprange finding is silenced and nothing else is reported for it. The
// other comments are each malformed in one way — reason-less, unknown
// analyzer, wrong analyzer — so both the suppression diagnostic and the
// undiminished maprange finding appear.
package suppressfix

// okSuppressed is the clean baseline: a well-formed suppression silences
// the finding on the line below it.
func okSuppressed(m map[int]int) int {
	n := 0
	//lisa:vet-ok maprange commutative sum; iteration order cannot change the result
	for _, v := range m {
		n += v
	}
	return n
}

// noReason names the analyzer but gives no justification: the suppression
// is reported and does not silence the finding.
func noReason(m map[int]int) int {
	n := 0
	//lisa:vet-ok maprange
	for range m {
		n++
	}
	return n
}

// unknownAnalyzer names an analyzer that does not exist.
func unknownAnalyzer(m map[int]int) int {
	n := 0
	//lisa:vet-ok mapranje typo in the analyzer name
	for range m {
		n++
	}
	return n
}

// wrongAnalyzer is well-formed but scoped to a different analyzer, so the
// maprange finding still fires (and the comment itself is fine).
func wrongAnalyzer(m map[int]int) int {
	n := 0
	//lisa:vet-ok wallclock suppresses the wrong analyzer
	for range m {
		n++
	}
	return n
}
