package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"github.com/lisa-go/lisa/internal/kernels"
)

// FuzzLabelsRequest: splitLabelsRequest either declines a body or yields
// the LabelsRequest decodeStrict, encoding/json with unknown fields and
// trailing data disallowed, decodes it to. `go test` runs the seeds (the
// f.Add ones and testdata/fuzz); `go test -fuzz=FuzzLabelsRequest`
// explores further.
func FuzzLabelsRequest(f *testing.F) {
	f.Add(`{"arch":"cgra-4x4","kernels":["gemm","atax"],"dfgs":[{"name":"x","nodes":[{"name":"a","op":"load"}],"edges":[]}]}`)
	f.Add(`{"arch":"cgra-4x4","kernels":[],"dfgs":[null,"s",-0.5e3,true,[],{}]}`)
	f.Add(`{"Arch":"cgra-4x4","kernels":["gemm"]} trailing`)
	f.Fuzz(func(t *testing.T, body string) {
		checkSplit(t, body, splitLabelsRequest)
	})
}

// checkSplit fails t when split takes body and decodeStrict, encoding/json
// with unknown fields and trailing data disallowed, rejects it or decodes
// it to another value.
func checkSplit[T any](t *testing.T, body string, split func([]byte) (T, bool)) {
	t.Helper()
	got, ok := split([]byte(body))
	if !ok {
		return
	}
	var want T
	if err := decodeStrict([]byte(body), &want); err != nil {
		t.Fatalf("the split took %q, which decodeStrict rejects: %v", body, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%q: the split gave %+v, decodeStrict %+v", body, got, want)
	}
}

// FuzzMapRequestSplit: splitMapRequest either declines a body or yields
// the MapRequest decodeStrict decodes it to. `go test` runs the seeds (the
// f.Add ones and testdata/fuzz); `go test -fuzz=FuzzMapRequestSplit`
// explores further.
func FuzzMapRequestSplit(f *testing.F) {
	f.Add(`{"kernel":"gemm","arch":"cgra-4x4","engine":"lisa","seed":7,"unroll":2,"maxMoves":800,"restarts":4,"deadlineMs":500,"stats":true}`)
	f.Add(`{"dfg":{"name":"x","nodes":[{"name":"a","op":"load"}],"edges":[]},"arch":"cgra-3x3","seed":-0}`)
	f.Fuzz(func(t *testing.T, body string) {
		checkSplit(t, body, splitMapRequest)
	})
}

// TestMapSplitTakesClientBodies: the /v1/map bodies clients build —
// json.Marshal of a MapRequest with each field set or unset, as perfbench
// and the README's examples write them, compact and indented — take the
// strict split, so the fast path cannot silently stop being taken.
func TestMapSplitTakesClientBodies(t *testing.T) {
	var doc bytes.Buffer
	if err := kernels.MustByName("atax").WriteJSON(&doc); err != nil {
		t.Fatal(err)
	}
	seed, zero := int64(7), int64(0)
	full := MapRequest{Kernel: "gemm", DFG: doc.Bytes(), Arch: "cgra-4x4", Engine: "lisa", Seed: &seed,
		Unroll: 2, MaxMoves: 800, Restarts: 4, DeadlineMs: 500, Stats: true}
	reqs := []MapRequest{full, {Arch: "cgra-4x4"}, {Kernel: "gemm", Arch: "cgra-4x4", Seed: &zero}}
	for _, unset := range []func(*MapRequest){
		func(r *MapRequest) { r.Kernel = "" }, func(r *MapRequest) { r.DFG = nil },
		func(r *MapRequest) { r.Arch = "" }, func(r *MapRequest) { r.Engine = "" },
		func(r *MapRequest) { r.Seed = nil }, func(r *MapRequest) { r.Unroll = 0 },
		func(r *MapRequest) { r.MaxMoves = 0 }, func(r *MapRequest) { r.Restarts = 0 },
		func(r *MapRequest) { r.DeadlineMs = 0 }, func(r *MapRequest) { r.Stats = false },
	} {
		r := full
		unset(&r)
		reqs = append(reqs, r)
	}
	// perfbench's mapReq.body(): engine lisa, an explicit seed, unroll only
	// above 1.
	for _, unroll := range []int{0, 2} {
		for _, restarts := range []int{1, 4} {
			s := int64(1003)
			reqs = append(reqs, MapRequest{Kernel: "syrk", Arch: "cgra-4x4", Engine: "lisa", Seed: &s, Unroll: unroll, Restarts: restarts})
		}
	}
	bodies := [][]byte{
		[]byte(`{"kernel":"gemm","arch":"cgra-4x4","engine":"lisa","seed":7}`), // README
		[]byte(`{"kernel":"atax","arch":"cgra-4x4","engine":"sa","seed":3}`),
	}
	for _, r := range reqs {
		body, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	for _, body := range bodies {
		var indented bytes.Buffer
		if err := json.Indent(&indented, body, "", "  "); err != nil {
			t.Fatal(err)
		}
		for _, b := range [][]byte{body, indented.Bytes()} {
			if _, ok := splitMapRequest(b); !ok {
				t.Errorf("the strict split declined a client body:\n%s", b)
			}
			checkSplit(t, string(b), splitMapRequest)
		}
	}
}

// TestLabelsSplitTakesClientBodies: the bodies clients build — json.Marshal
// of a LabelsRequest holding WriteJSON documents, and the same indented —
// take the strict split, so the fast path cannot silently stop being taken.
func TestLabelsSplitTakesClientBodies(t *testing.T) {
	var dfgs []json.RawMessage
	for _, name := range kernels.Names() {
		var doc bytes.Buffer
		if err := kernels.MustByName(name).WriteJSON(&doc); err != nil {
			t.Fatal(err)
		}
		dfgs = append(dfgs, doc.Bytes())
	}
	compact, err := json.Marshal(LabelsRequest{Arch: "cgra-4x4", Kernels: kernels.Names(), DFGs: dfgs})
	if err != nil {
		t.Fatal(err)
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, compact, "", "  "); err != nil {
		t.Fatal(err)
	}
	for _, body := range [][]byte{compact, indented.Bytes()} {
		req, ok := splitLabelsRequest(body)
		if !ok {
			t.Fatalf("the strict split declined a client body:\n%s", body)
		}
		if req.Arch != "cgra-4x4" || len(req.Kernels) != len(kernels.Names()) || len(req.DFGs) != len(dfgs) {
			t.Fatalf("the strict split gave %q, %d kernels, %d DFGs", req.Arch, len(req.Kernels), len(req.DFGs))
		}
	}
}

// TestLabelsOverCapBody: /v1/labels reads its body as /v1/map does, so a
// body over the 4 MiB cap answers 400 even when its first JSON value ends
// inside the cap.
func TestLabelsOverCapBody(t *testing.T) {
	s := testServer(t, Config{})
	body := `{"arch":"cgra-4x4","kernels":["gemm"]}` + strings.Repeat(" ", maxBodyBytes)
	w := postLabels(t, s.Handler(), body)
	var eb errorBody
	if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil {
		t.Fatal(err)
	}
	if w.Code != http.StatusBadRequest || eb.Error != "bad request body: http: request body too large" {
		t.Fatalf("status %d, error %q; want 400 bad request body: http: request body too large", w.Code, eb.Error)
	}
}

// TestBatchOverCapBody: /v1/map/batch reads its body as /v1/map and
// /v1/labels do, so a body over the 4 MiB cap answers 400 even when its
// first JSON value ends inside the cap.
func TestBatchOverCapBody(t *testing.T) {
	s := testServer(t, Config{})
	body := `{"items":[{"kernel":"gemm","arch":"cgra-4x4","engine":"greedy"}]}` + strings.Repeat(" ", maxBodyBytes)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/map/batch", strings.NewReader(body)))
	var eb errorBody
	if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil {
		t.Fatal(err)
	}
	if w.Code != http.StatusBadRequest || eb.Error != "bad request body: http: request body too large" {
		t.Fatalf("status %d, error %q; want 400 bad request body: http: request body too large", w.Code, eb.Error)
	}
}
