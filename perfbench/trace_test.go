package main

import (
	"strings"
	"testing"
)

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	spans := []span{
		{name: "request", parent: -1, start: 0, end: 100},
		{name: "a", parent: 0, start: 10, end: 30},
		{name: "b", parent: 0, start: 20, end: 50},  // overlaps a
		{name: "c", parent: 0, start: 90, end: 120}, // runs past its parent
		{name: "a.child", parent: 1, start: 12, end: 15},
		{name: "other", parent: -1, start: 200, end: 210},
	}
	// request: 100 - |[10,50] + [90,100]| = 50; a: 20 - 3.
	want := []int64{50, 17, 30, 30, 3, 10}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].name, got[i], want[i])
		}
	}
	at := byName(append(spans, span{name: "a", parent: -1, start: 300, end: 305}), append(got, 5))
	if lt := at["request"]; lt.self != 50 || lt.calls != 1 {
		t.Errorf("request layer %+v", lt)
	}
	if lt := at["a"]; lt.self != 22 || lt.calls != 2 {
		t.Errorf("layer a %+v, want self 22 over 2 calls", lt)
	}
}

func TestWriteSpansWritesAHeaderAndEverySpan(t *testing.T) {
	m := []span{{name: "r", parent: -1}, {name: "x", parent: 0}, {name: "r", parent: -1}, {name: "y", parent: 2}, {name: "z", parent: 3}}
	var out strings.Builder
	if err := writeSpans(&out, m); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(out.String(), "\n"); lines != 6 {
		t.Errorf("trace file has %d lines, want a header and 5 spans", lines)
	}
}

func TestDisabledTracerRecordsNothing(t *testing.T) {
	tr := &tracer{}
	h := tr.begin("request", 0, -1)
	tr.end(h)
	if h != -1 || len(tr.spans) != 0 {
		t.Errorf("handle %d, %d spans", h, len(tr.spans))
	}
}
