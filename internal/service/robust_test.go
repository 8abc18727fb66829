package service

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/lisa-go/lisa/internal/fault"
	"github.com/lisa-go/lisa/internal/gnn"
	"github.com/lisa-go/lisa/internal/registry"
)

// Satellite: every malformed inline DFG comes back as a structured 400
// whose defect field names the specific problem — never a 500, never a
// crashed handler.
func TestMapInlineDFGDefects(t *testing.T) {
	s := testServer(t, Config{MaxDFGNodes: 8, MaxDFGEdges: 8})
	h := s.Handler()

	mapBody := func(dfgDoc string, extra string) string {
		return fmt.Sprintf(`{"dfg":%s,"arch":"cgra-4x4"%s}`, dfgDoc, extra)
	}
	bigDFG := func(n int) string {
		nodes := make([]string, n)
		edges := make([]string, n-1)
		for i := range nodes {
			nodes[i] = fmt.Sprintf(`{"name":"n%d","op":"add"}`, i)
		}
		for i := range edges {
			edges[i] = fmt.Sprintf(`[%d,%d]`, i, i+1)
		}
		return fmt.Sprintf(`{"name":"big","nodes":[%s],"edges":[%s]}`,
			strings.Join(nodes, ","), strings.Join(edges, ","))
	}

	cases := []struct {
		name   string
		body   string
		defect string
	}{
		{"non-object dfg document", mapBody(`"just a string"`, ""), "bad-json"},
		{"unknown op", mapBody(`{"name":"g","nodes":[{"name":"a","op":"frobnicate"}],"edges":[]}`, ""), "unknown-op"},
		{"duplicate name", mapBody(`{"name":"g","nodes":[{"name":"a","op":"add"},{"name":"a","op":"mul"}],"edges":[[0,1]]}`, ""), "duplicate-name"},
		{"dangling edge", mapBody(`{"name":"g","nodes":[{"name":"a","op":"add"}],"edges":[[0,9]]}`, ""), "dangling-edge"},
		{"self loop", mapBody(`{"name":"g","nodes":[{"name":"a","op":"add"}],"edges":[[0,0]]}`, ""), "self-loop"},
		{"cycle", mapBody(`{"name":"g","nodes":[{"name":"a","op":"add"},{"name":"b","op":"mul"}],"edges":[[0,1],[1,0]]}`, ""), "cycle"},
		{"disconnected", mapBody(`{"name":"g","nodes":[{"name":"a","op":"add"},{"name":"b","op":"mul"}],"edges":[]}`, ""), "not-connected"},
		{"too many nodes", mapBody(bigDFG(9), ""), "too-large"},
		{"too large after unroll", mapBody(bigDFG(5), `,"unroll":2`), "too-large"},
		{"unroll factor over cap", mapBody(bigDFG(2), `,"unroll":9`), "too-large"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := postMap(t, h, tc.body)
			if w.Code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400: %s", w.Code, w.Body)
			}
			var body struct {
				Error  string `json:"error"`
				Defect string `json:"defect"`
			}
			if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
				t.Fatal(err)
			}
			if body.Defect != tc.defect {
				t.Fatalf("defect = %q (%s), want %q", body.Defect, body.Error, tc.defect)
			}
			if body.Error == "" {
				t.Fatal("400 with no error message")
			}
		})
	}
}

// Built-in kernels are trusted: the size caps must not reject them even
// when they are larger than the inline-DFG limits.
func TestMapKernelsExemptFromSizeCaps(t *testing.T) {
	s := testServer(t, Config{MaxDFGNodes: 2, MaxDFGEdges: 2})
	w := postMap(t, s.Handler(), `{"kernel":"gemm","arch":"cgra-8x8","engine":"sa","seed":1}`)
	if w.Code != http.StatusOK {
		t.Fatalf("trusted kernel rejected by size cap: %d %s", w.Code, w.Body)
	}
}

// Satellite: a request whose deadline expires before any valid mapping is
// found must come back 200 — either a best-so-far result flagged
// deadlineExceeded or a labeled greedy fallback — and must never enter the
// cache.
func TestMapExpiredDeadlineIsLabeledAndUncached(t *testing.T) {
	s := testServer(t, Config{})
	h := s.Handler()
	// A 1ms budget for an 8x-unrolled gemm on the 4x4 array cannot finish
	// the SA sweep; the ladder's deadline rung takes over.
	body := `{"kernel":"gemm","arch":"cgra-4x4","engine":"sa","seed":1,"unroll":8,"maxMoves":400000,"deadlineMs":1}`
	w := postMap(t, h, body)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d, want 200 (never 5xx on a deadline): %s", w.Code, w.Body)
	}
	var resp MapResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	labeled := resp.Result.DeadlineExceeded || len(resp.Result.Degraded) > 0
	if !labeled {
		t.Fatalf("deadline-curtailed response carries no label: %+v", resp.Result)
	}
	if len(resp.Result.Degraded) > 0 && resp.EngineUsed != "greedy" {
		t.Fatalf("degraded chain %v but engineUsed = %q, want greedy", resp.Result.Degraded, resp.EngineUsed)
	}
	if got := s.cache.Len(); got != 0 {
		t.Fatalf("cache has %d entries after a deadline-curtailed response, want 0", got)
	}
	if w2 := postMap(t, h, body); w2.Header().Get("X-Lisa-Cache") == "hit" {
		t.Fatal("deadline-curtailed response was served from the cache")
	}
}

// An ILP request stops at its deadline: no II starts after it and every
// solve stops at it, so the answer comes back promptly, flagged
// deadlineExceeded, marked no-store and never cached. An ILP sweep once
// spent the full per-II budget on every II and answered this request after
// about 1.4 s, mapped at II 10 and cached.
func TestILPDeadlineIsKeptAndUncached(t *testing.T) {
	s := testServer(t, Config{})
	h := s.Handler()
	body := `{"kernel":"mvt","arch":"cgra-3x3","engine":"ilp","deadlineMs":1}`
	for i := 0; i < 2; i++ {
		start := time.Now()
		w := postMap(t, h, body)
		elapsed := time.Since(start)
		if w.Code != http.StatusOK || w.Header().Get(noStoreHeader) != "1" || w.Header().Get(cacheHeader) != "miss" {
			t.Fatalf("request %d: status %d, %s %q, %s %q; want a 200 miss marked no-store: %s", i, w.Code,
				noStoreHeader, w.Header().Get(noStoreHeader), cacheHeader, w.Header().Get(cacheHeader), w.Body)
		}
		var resp MapResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Result.OK || !resp.Result.DeadlineExceeded || len(resp.Result.Degraded) != 0 {
			t.Fatalf("request %d: result %+v; want no mapping, deadlineExceeded, no degraded chain", i, resp.Result)
		}
		// At 1 ms no solve starts: the first II's model build stops at the
		// first node or edge it reaches past the deadline. The bound leaves
		// room for the race detector.
		if elapsed > time.Second {
			t.Fatalf("request %d answered after %v, want well under 1s", i, elapsed)
		}
	}
	if got := s.cache.Len(); got != 0 {
		t.Fatalf("cache has %d entries after deadline-cut ILP answers, want 0", got)
	}
}

// A cached lazy-training failure must surface on /v1/archs as modelError
// and clear through POST /v1/reload — the one deliberate retry path. The
// failure is driven through the gnn.train fault site, which fires before
// any real training work, so the test is cheap.
func TestArchsReportModelErrorAndReloadClearsIt(t *testing.T) {
	plan, err := fault.ParsePlan("gnn.train=error:1", 1)
	if err != nil {
		t.Fatal(err)
	}
	fault.Activate(plan)
	defer fault.Deactivate()

	reg := registry.New(registry.Config{TrainOnDemand: true})
	s := New(Config{}, reg)
	defer s.Close()
	h := s.Handler()

	archsBody := func() []ArchInfo {
		t.Helper()
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/archs", nil))
		if w.Code != http.StatusOK {
			t.Fatalf("/v1/archs: %d", w.Code)
		}
		var out []ArchInfo
		if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	modelError := func(name string) string {
		t.Helper()
		for _, info := range archsBody() {
			if info.Name == name {
				return info.ModelError
			}
		}
		t.Fatalf("%s missing from /v1/archs", name)
		return ""
	}

	// A label-engine request trips the poisoned training; the ladder still
	// answers 200 (degraded to sa), and the failure is now cached.
	w := postMap(t, h, `{"kernel":"gemm","arch":"cgra-4x4","engine":"lisa","seed":1}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d, want 200 via the ladder: %s", w.Code, w.Body)
	}
	if got := modelError("cgra-4x4"); !strings.Contains(got, "injected") {
		t.Fatalf("modelError = %q, want the cached injected-fault error", got)
	}

	// Reload clears exactly that failure.
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest(http.MethodPost, "/v1/reload", nil))
	if rw.Code != http.StatusOK {
		t.Fatalf("/v1/reload: %d %s", rw.Code, rw.Body)
	}
	var resp ReloadResponse
	if err := json.Unmarshal(rw.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Retried) != 1 || resp.Retried[0] != "cgra-4x4" {
		t.Fatalf("reload retried %v, want [cgra-4x4]", resp.Retried)
	}
	if got := modelError("cgra-4x4"); got != "" {
		t.Fatalf("modelError survives reload: %q", got)
	}
}

// POST /v1/reload rescans the models directory for files that appeared
// after startup, skipping already-registered targets.
func TestReloadRescansModelsDir(t *testing.T) {
	dir := t.TempDir()
	reg := registry.New(registry.Config{TrainOnDemand: false})
	s := New(Config{ModelsDir: dir}, reg)
	defer s.Close()
	h := s.Handler()

	writeModel := func(name string) {
		t.Helper()
		m := gnn.NewModel(rand.New(rand.NewSource(1)), name)
		f, err := os.Create(filepath.Join(dir, name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Save(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}

	reload := func() ReloadResponse {
		t.Helper()
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/reload", nil))
		if w.Code != http.StatusOK {
			t.Fatalf("/v1/reload: %d %s", w.Code, w.Body)
		}
		var resp ReloadResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}

	writeModel("cgra-4x4")
	resp := reload()
	if len(resp.Loaded) != 1 || resp.Loaded[0] != "cgra-4x4" {
		t.Fatalf("first rescan: %+v", resp)
	}
	if !reg.Has("cgra-4x4") {
		t.Fatal("rescanned model not registered")
	}

	// A second reload sees the same file: already-registered, not an error.
	resp = reload()
	if len(resp.Loaded) != 0 || len(resp.Errors) != 0 {
		t.Fatalf("idempotent rescan: %+v", resp)
	}

	// A new file appearing later is picked up; a corrupt one is reported.
	writeModel("cgra-8x8")
	if err := os.WriteFile(filepath.Join(dir, "broken.json"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	resp = reload()
	if len(resp.Loaded) != 1 || resp.Loaded[0] != "cgra-8x8" {
		t.Fatalf("second rescan loaded %v", resp.Loaded)
	}
	if len(resp.Errors) != 1 {
		t.Fatalf("corrupt file not reported: %+v", resp)
	}
}

func TestReloadRequiresPOST(t *testing.T) {
	s := testServer(t, Config{})
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/reload", nil))
	if w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/reload: %d, want 405", w.Code)
	}
}

// A panicking handler must produce a 500 and a panics-counter tick, and
// the daemon must keep answering afterwards.
func TestHandlerPanicIsA500NotACrash(t *testing.T) {
	var recovered any
	s := testServer(t, Config{OnPanic: func(rec any, stack []byte) {
		recovered = rec
		if len(stack) == 0 {
			t.Error("panic reported with no stack")
		}
	}})
	// Mount a deliberately panicking handler through the server's own front
	// door.
	h := s.serve(endpoint{route: routeHealthz, handle: func(http.ResponseWriter, *http.Request, []byte) {
		panic("boom")
	}})
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/anything", nil))
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", w.Code)
	}
	var body struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(body.Error, "boom") {
		t.Fatalf("error body %q does not mention the panic", body.Error)
	}
	if recovered != "boom" {
		t.Fatalf("OnPanic saw %v, want boom", recovered)
	}
	snap := s.metrics.Snapshot(s.metrics.start, 0, 0)
	if snap.Panics != 1 {
		t.Fatalf("panics counter = %d, want 1", snap.Panics)
	}

	// The real mux still serves.
	w2 := httptest.NewRecorder()
	s.Handler().ServeHTTP(w2, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if w2.Code != http.StatusOK {
		t.Fatalf("daemon dead after a handler panic: %d", w2.Code)
	}
}
