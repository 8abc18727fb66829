package main

import (
	"math"
	"testing"
)

func TestHighestTailLeavesTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want int
		ok   bool
	}{
		{19, 0, false},
		{20, 500, true},
		{99, 500, true},
		{100, 900, true},
		{999, 900, true},
		{1000, 990, true},
		{9999, 990, true},
		{10000, 999, true},
	} {
		got, ok := highestTail(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("highestTail(%d) = %d, %v; want %d, %v", c.n, got, ok, c.want, c.ok)
		}
		if ok && beyond(c.n, got) < 10 {
			t.Errorf("n=%d: p%g leaves %d samples beyond it", c.n, float64(got)/10, beyond(c.n, got))
		}
	}
}

func TestPercentileIsNearestRankAndFailuresAreOverAnyLimit(t *testing.T) {
	s := make(latencies, 1000)
	for i := range s {
		s[i] = float64(i + 1)
	}
	sorted := s.sorted()
	if got := percentile(sorted, 500); got != 500 {
		t.Errorf("p50 = %g, want 500", got)
	}
	if got := percentile(sorted, 990); got != 990 {
		t.Errorf("p99 = %g, want 990", got)
	}
	for i := 0; i < 11; i++ {
		s[i] = posInf
	}
	if got := percentile(s.sorted(), 990); got != math.MaxFloat64 {
		t.Errorf("p99 with 11 failed requests = %g, want the largest float", got)
	}
}
