package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/lisa-go/lisa/internal/fault"
)

// metricsScript is the request script TestMetricsDocument sends, in order:
// every route, a 405, 400s, a /metrics read mid-script, and a /v1/map
// request that panics under an armed cache.get fault.
var metricsScript = []struct {
	method, path, body string
	status             int
	panics             bool // sent under cache.get=panic:1
}{
	{http.MethodGet, "/healthz", "", http.StatusOK, false},
	{http.MethodGet, "/v1/archs", "", http.StatusOK, false},
	{http.MethodGet, "/v1/kernels", "", http.StatusOK, false},
	{http.MethodGet, "/readyz", "", http.StatusOK, false},
	{http.MethodGet, "/v1/model/cgra-4x4", "", http.StatusOK, false},
	{http.MethodGet, "/v1/model/nope", "", http.StatusNotFound, false},
	{http.MethodPost, "/v1/reload", "", http.StatusOK, false},
	{http.MethodGet, "/metrics", "", http.StatusOK, false},
	{http.MethodPost, "/v1/map", `{"kernel":"gemm","arch":"cgra-4x4","engine":"sa","seed":7,"maxMoves":400}`, http.StatusOK, false},
	{http.MethodPost, "/v1/map", `{"kernel":"gemm","arch":"cgra-4x4","engine":"sa","seed":7,"maxMoves":400}`, http.StatusOK, false},
	{http.MethodPost, "/v1/map", `{"kernel":"gemm","arch":"tpu"}`, http.StatusBadRequest, false},
	{http.MethodGet, "/v1/map", "", http.StatusMethodNotAllowed, false},
	{http.MethodPost, "/v1/map/batch", `{"items":[{"kernel":"atax","arch":"cgra-4x4","engine":"greedy"},{"kernel":"atax","arch":"nope"}]}`, http.StatusOK, false},
	{http.MethodPost, "/v1/map/batch", `{"items":[]}`, http.StatusBadRequest, false},
	{http.MethodPost, "/v1/labels", `{"arch":"cgra-4x4","kernels":["gemm"]}`, http.StatusOK, false},
	{http.MethodPost, "/v1/labels", `{"arch":"cgra-4x4","kernels":["nope"]}`, http.StatusBadRequest, false},
	{http.MethodPost, "/v1/map", `{"kernel":"mvt","arch":"cgra-4x4","engine":"greedy"}`, http.StatusInternalServerError, true},
}

// metricsGolden is /metrics after metricsScript, compared compact. The
// /metrics read that returns it is not in it, and the panicking /v1/map
// request is counted under its route and 500.
const metricsGolden = `{
  "batch": {"failedItems": 1, "items": 2, "requests": 1},
  "cache": {"bytes": 1421, "coalesced": 0, "entries": 2, "hitRatio": 0.3333333333333333, "hits": 1, "misses": 2},
  "engines": {
    "greedy": {"avgMillis": 0, "count": 1, "degraded": 0, "failures": 0, "histogram": [
      {"count": 0, "leMillis": 1}, {"count": 0, "leMillis": 5}, {"count": 0, "leMillis": 10},
      {"count": 0, "leMillis": 50}, {"count": 0, "leMillis": 100}, {"count": 0, "leMillis": 500},
      {"count": 0, "leMillis": 1000}, {"count": 0, "leMillis": 5000}, {"count": 0, "leMillis": 30000},
      {"count": 0, "leMillis": -1}]},
    "sa": {"avgMillis": 0, "count": 1, "degraded": 0, "failures": 0, "histogram": [
      {"count": 0, "leMillis": 1}, {"count": 0, "leMillis": 5}, {"count": 0, "leMillis": 10},
      {"count": 0, "leMillis": 50}, {"count": 0, "leMillis": 100}, {"count": 0, "leMillis": 500},
      {"count": 0, "leMillis": 1000}, {"count": 0, "leMillis": 5000}, {"count": 0, "leMillis": 30000},
      {"count": 0, "leMillis": -1}]}
  },
  "inflight": 0,
  "models": {"fetchErrors": 0, "fetches": 0, "loaded": 6, "shipped": 0, "trainRuns": 0, "trained": 0},
  "panics": 1,
  "rejected": 0,
  "requests": {"/healthz": 1, "/metrics": 1, "/readyz": 1, "/v1/archs": 1, "/v1/kernels": 1,
    "/v1/labels": 2, "/v1/map": 5, "/v1/map/batch": 2, "/v1/model": 2, "/v1/reload": 1},
  "status": {"200": 11, "400": 3, "404": 1, "405": 1, "500": 1},
  "uptimeSeconds": 0
}`

// TestMetricsDocument pins the whole /metrics document after a fixed
// script through Handler(), with the uptime, the mean latencies and the
// histogram counts zeroed: the only fields that depend on the clock.
func TestMetricsDocument(t *testing.T) {
	s := testServer(t, Config{})
	h := s.Handler()
	for _, step := range metricsScript {
		if step.panics {
			armFaults(t, "cache.get=panic:1", 1)
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(step.method, step.path, strings.NewReader(step.body)))
		if step.panics {
			fault.Deactivate()
		}
		if w.Code != step.status {
			t.Fatalf("%s %s %s: %d %s, want %d", step.method, step.path, step.body, w.Code, w.Body, step.status)
		}
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	var doc map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	doc["uptimeSeconds"] = 0
	for _, e := range doc["engines"].(map[string]any) {
		e := e.(map[string]any)
		e["avgMillis"] = 0
		for _, b := range e["histogram"].([]any) {
			b.(map[string]any)["count"] = 0
		}
	}
	got, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := json.Compact(&want, []byte(metricsGolden)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("/metrics after the script:\n%s\nwant:\n%s", got, want.Bytes())
	}
}

// TestDataAfterJSONValue: every POST route reads one JSON value, and data
// after it other than JSON whitespace answers 400.
func TestDataAfterJSONValue(t *testing.T) {
	s := testServer(t, Config{})
	h := s.Handler()
	const mapReq = `{"kernel":"gemm","arch":"cgra-4x4","engine":"greedy"}`
	routes := []struct{ path, body string }{
		{"/v1/map", mapReq},
		{"/v1/map/batch", `{"items":[` + mapReq + `]}`},
		{"/v1/labels", `{"arch":"cgra-4x4","kernels":["gemm"]}`},
		{"/v1/labels", `{"kernels":["gemm"],"arch":"cgra-4x4"}`}, // outside the strict split's shape
	}
	for _, rt := range routes {
		for _, tail := range []string{"", " \t\r\n", " garbage", "{}", `{"arch":"nope"}`, "\x00", "\u00a0"} {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, rt.path, strings.NewReader(rt.body+tail)))
			want, wantErr := http.StatusOK, ""
			if strings.TrimLeft(tail, " \t\r\n") != "" {
				want, wantErr = http.StatusBadRequest, "bad request body: data after the JSON value"
			}
			var eb errorBody
			if w.Code != http.StatusOK {
				if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil {
					t.Fatal(err)
				}
			}
			if w.Code != want || eb.Error != wantErr {
				t.Errorf("%s %q + %q: %d %q, want %d %q", rt.path, rt.body, tail, w.Code, eb.Error, want, wantErr)
			}
		}
	}
}

// FuzzMapRequest posts raw bytes to /v1/map: whatever they are, the answer
// is no 5xx and nothing panics. When the bytes are one JSON value, the
// batch holding them as its one item answers that item as /v1/map did.
// `go test` runs the seeds (the f.Add ones and testdata/fuzz);
// `go test -fuzz=FuzzMapRequest` explores further.
func FuzzMapRequest(f *testing.F) {
	f.Add([]byte(`{"kernel":"gemm","arch":"cgra-4x4","engine":"greedy"}`))
	f.Add([]byte(`{"kernel":"atax","arch":"cgra-4x4","engine":"sa","seed":3,"unroll":2,"restarts":2,"stats":true}`))
	f.Add([]byte(`{"dfg":{"name":"x","nodes":[{"name":"a","op":"load"},{"name":"b","op":"store"}],"edges":[[0,1]]},"arch":"cgra-3x3"}`))
	s := testServer(f, Config{MaxDeadline: 50 * time.Millisecond})
	h := s.Handler()
	post := func(path string, body []byte) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		return w
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		w := post("/v1/map", body)
		if w.Code >= http.StatusInternalServerError {
			t.Fatalf("/v1/map %q: %d %s", body, w.Code, w.Body)
		}
		if n := s.metrics.ctr[ctrPanics].Load(); n != 0 {
			t.Fatalf("/v1/map %q: %d panics", body, n)
		}
		if !json.Valid(body) {
			return
		}
		want := BatchItemResult{Status: w.Code}
		if w.Code != http.StatusOK {
			var eb errorBody
			if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil {
				t.Fatalf("/v1/map %q: %d with a body that is no error document: %s", body, w.Code, w.Body)
			}
			want.Error, want.Defect = eb.Error, eb.Defect
		}
		bw := post("/v1/map/batch", append(append([]byte(`{"items":[`), body...), "]}"...))
		var resp BatchResponse
		if bw.Code != http.StatusOK || json.Unmarshal(bw.Body.Bytes(), &resp) != nil || len(resp.Items) != 1 {
			t.Fatalf("batch of %q: %d %s", body, bw.Code, bw.Body)
		}
		got := resp.Items[0]
		if got.Status != want.Status || got.Error != want.Error || got.Defect != want.Defect {
			t.Fatalf("%q: batch item %+v, /v1/map %+v", body, got, want)
		}
	})
}
