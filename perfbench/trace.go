package main

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"time"
)

// span is one timed call at a layer boundary.
type span struct {
	name   string
	req    int32 // index of the request in the workload's list; -1 outside a request
	parent int32 // index of the enclosing span in the same trace; -1 for a root
	start  int64 // ns since the trace epoch
	end    int64
}

// tracer records the spans of one client in memory. With on false it
// records nothing, which is the replay the tracing overhead is measured
// against.
type tracer struct {
	on    bool
	epoch time.Time
	spans []span
}

// begin opens a span and returns its handle for end (-1 when off).
func (t *tracer) begin(name string, req, parent int) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{name: name, req: int32(req), parent: int32(parent), start: int64(time.Since(t.epoch))})
	return len(t.spans) - 1
}

// end closes a span opened by begin.
func (t *tracer) end(h int) {
	if h >= 0 {
		t.spans[h].end = int64(time.Since(t.epoch))
	}
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover (overlapping children count once).
func selfTimes(spans []span) []int64 {
	kids := make(map[int32][]int32)
	for i, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.end - s.start
		cs := kids[int32(i)]
		if len(cs) == 0 {
			continue
		}
		ivs := make([][2]int64, 0, len(cs))
		for _, c := range cs {
			lo, hi := max(spans[c].start, s.start), min(spans[c].end, s.end)
			if hi > lo {
				ivs = append(ivs, [2]int64{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		var covered, curLo, curHi int64
		for j, iv := range ivs {
			switch {
			case j == 0:
				curLo, curHi = iv[0], iv[1]
			case iv[0] > curHi:
				covered += curHi - curLo
				curLo, curHi = iv[0], iv[1]
			case iv[1] > curHi:
				curHi = iv[1]
			}
		}
		if len(ivs) > 0 {
			covered += curHi - curLo
		}
		self[i] -= covered
	}
	return self
}

// layerTime is the summed self time and the call count of one span name.
type layerTime struct {
	self  int64
	calls int
}

// byName sums self times and counts calls per span name.
func byName(spans []span, self []int64) map[string]layerTime {
	out := make(map[string]layerTime)
	for i, s := range spans {
		lt := out[s.name]
		lt.self += self[i]
		lt.calls++
		out[s.name] = lt
	}
	return out
}

// writeSpans writes a trace as tab-separated lines: index, parent, request,
// name, start and end in ns since the trace epoch.
func writeSpans(w io.Writer, spans []span) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "idx\tparent\treq\tname\tstart_ns\tend_ns")
	for i, s := range spans {
		fmt.Fprintf(bw, "%d\t%d\t%d\t%s\t%d\t%d\n", i, s.parent, s.req, s.name, s.start, s.end)
	}
	return bw.Flush()
}
