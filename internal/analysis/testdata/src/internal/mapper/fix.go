// Package fix is the maprange/wallclock fixture. Its directory poses as
// internal/mapper (see LoadFixture's asPath in the tests), so the
// result-package rules apply.
package fix

import "sort"

// rangesMap consumes map entries directly: flagged.
func rangesMap(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

// collectThenSort is the blessed idiom: not flagged.
func collectThenSort(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// collectNoSort collects but never sorts: flagged.
func collectNoSort(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}

// conditionalCollect collects under a condition and sorts: not flagged.
func conditionalCollect(m map[string]int) []string {
	var keys []string
	for k, v := range m {
		if v > 0 {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// suppressedRange carries an annotation: not flagged.
func suppressedRange(m map[string]int) int {
	n := 0
	//lisa:vet-ok maprange counting entries; integer addition is commutative
	for range m {
		n++
	}
	return n
}

// sliceRange iterates a slice: maps only, not flagged.
func sliceRange(s []int) int {
	t := 0
	for _, v := range s {
		t += v
	}
	return t
}
