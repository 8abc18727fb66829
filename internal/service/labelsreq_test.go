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
		got, ok := splitLabelsRequest([]byte(body))
		if !ok {
			return
		}
		var want LabelsRequest
		if err := decodeStrict([]byte(body), &want); err != nil {
			t.Fatalf("the split took a body decodeStrict rejects: %v", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("the split gave %+v, decodeStrict %+v", got, want)
		}
	})
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
