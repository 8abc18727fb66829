package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/lisa-go/lisa/internal/arch"
	"github.com/lisa-go/lisa/internal/engine"
	"github.com/lisa-go/lisa/internal/gnn"
	"github.com/lisa-go/lisa/internal/kernels"
	"github.com/lisa-go/lisa/internal/mapper"
	"github.com/lisa-go/lisa/internal/registry"
)

// testServer builds a server whose registry has a pre-seeded (untrained)
// model per CGRA so label engines never fall into minutes of training.
func testServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	reg := registry.New(registry.Config{TrainOnDemand: false})
	for _, name := range arch.Names() {
		reg.Put(gnn.NewModel(rand.New(rand.NewSource(1)), name))
	}
	s := New(cfg, reg)
	t.Cleanup(s.Close)
	return s
}

func postMap(t *testing.T, h http.Handler, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/map", strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func TestMapMissThenHitByteIdentical(t *testing.T) {
	s := testServer(t, Config{})
	h := s.Handler()
	body := `{"kernel":"gemm","arch":"cgra-4x4","engine":"sa","seed":7}`

	miss := postMap(t, h, body)
	if miss.Code != http.StatusOK {
		t.Fatalf("miss status %d: %s", miss.Code, miss.Body)
	}
	if got := miss.Header().Get("X-Lisa-Cache"); got != "miss" {
		t.Fatalf("first request X-Lisa-Cache = %q", got)
	}
	hit := postMap(t, h, body)
	if hit.Code != http.StatusOK {
		t.Fatalf("hit status %d", hit.Code)
	}
	if got := hit.Header().Get("X-Lisa-Cache"); got != "hit" {
		t.Fatalf("second request X-Lisa-Cache = %q", got)
	}
	if !bytes.Equal(miss.Body.Bytes(), hit.Body.Bytes()) {
		t.Fatal("cache hit body differs from the original miss")
	}

	var resp MapResponse
	if err := json.Unmarshal(miss.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Result.OK || resp.Result.II <= 0 {
		t.Fatalf("gemm/sa/seed7 failed to map: %+v", resp.Result)
	}
	if resp.Result.Duration != 0 {
		t.Fatal("response leaked wall-clock duration; bodies cannot be deterministic")
	}

	// The response matches a direct engine invocation with the same inputs
	// (the CLI path), so service and CLI agree II-for-II.
	direct, err := engine.Map(arch.NewBaseline4x4(), kernels.MustByName("gemm"), engine.SA, nil,
		engine.Options{Map: mapper.Options{Seed: 7, MaxMoves: 2400, TimeLimit: 30 * time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	if direct.II != resp.Result.II || direct.Moves != resp.Result.Moves {
		t.Fatalf("service II=%d moves=%d, direct II=%d moves=%d",
			resp.Result.II, resp.Result.Moves, direct.II, direct.Moves)
	}

	snap := s.metrics.Snapshot(time.Now(), s.cache.Len(), s.cache.Bytes())
	if snap.Cache.Hits != 1 || snap.Cache.Misses != 1 {
		t.Fatalf("cache counters hits=%d misses=%d, want 1/1", snap.Cache.Hits, snap.Cache.Misses)
	}
	if snap.Cache.HitRatio != 0.5 {
		t.Fatalf("hit ratio %v, want 0.5", snap.Cache.HitRatio)
	}
}

// N concurrent identical requests run the annealer exactly once and all see
// the same bytes (run with -race: this is the singleflight acceptance test).
func TestConcurrentIdenticalRequestsSingleMapperRun(t *testing.T) {
	s := testServer(t, Config{Workers: 4, QueueDepth: 64})
	h := s.Handler()
	body := `{"kernel":"atax","arch":"cgra-4x4","engine":"sa","seed":3}`

	const n = 16
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := postMap(t, h, body)
			if w.Code != http.StatusOK {
				t.Errorf("request %d: status %d", i, w.Code)
				return
			}
			bodies[i] = w.Body.Bytes()
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("request %d body differs", i)
		}
	}
	snap := s.metrics.Snapshot(time.Now(), s.cache.Len(), s.cache.Bytes())
	sa := snap.Engines["sa"]
	if sa.Count != 1 {
		t.Fatalf("mapper ran %d times for %d identical requests, want exactly 1", sa.Count, n)
	}
	if got := snap.Cache.Hits + snap.Cache.Misses + snap.Cache.Coalesced; got != n {
		t.Fatalf("hits+misses+coalesced = %d, want %d", got, n)
	}
	if snap.Cache.Misses != 1 {
		t.Fatalf("misses = %d, want 1", snap.Cache.Misses)
	}
}

func TestMapInlineDFGMatchesKernel(t *testing.T) {
	s := testServer(t, Config{})
	h := s.Handler()

	var dfgJSON bytes.Buffer
	if err := kernels.MustByName("gemm").WriteJSON(&dfgJSON); err != nil {
		t.Fatal(err)
	}
	inlineReq := fmt.Sprintf(`{"dfg":%s,"arch":"cgra-4x4","engine":"sa","seed":7}`, dfgJSON.String())
	inline := postMap(t, h, inlineReq)
	if inline.Code != http.StatusOK {
		t.Fatalf("inline DFG status %d: %s", inline.Code, inline.Body)
	}
	// The body names the kernel it answers, so the named request keys on
	// its name and misses — and maps the same DFG to the same result.
	named := postMap(t, h, `{"kernel":"gemm","arch":"cgra-4x4","engine":"sa","seed":7}`)
	if got := named.Header().Get("X-Lisa-Cache"); named.Code != http.StatusOK || got != "miss" {
		t.Fatalf("named kernel after inline DFG: status %d, X-Lisa-Cache = %q, want 200 miss", named.Code, got)
	}
	var a, b MapResponse
	if err := json.Unmarshal(inline.Body.Bytes(), &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(named.Body.Bytes(), &b); err != nil {
		t.Fatal(err)
	}
	if a.Kernel != "" || b.Kernel != "gemm" {
		t.Fatalf("kernel fields %q and %q, want empty and gemm", a.Kernel, b.Kernel)
	}
	ra, _ := json.Marshal(a.Result)
	rb, _ := json.Marshal(b.Result)
	if !bytes.Equal(ra, rb) {
		t.Fatalf("inline and named results differ:\n%s\n%s", ra, rb)
	}
	// Content addressing: the same DFG uploaded again hits, byte for byte.
	again := postMap(t, h, inlineReq)
	if got := again.Header().Get("X-Lisa-Cache"); got != "hit" || !bytes.Equal(again.Body.Bytes(), inline.Body.Bytes()) {
		t.Fatalf("inline DFG again: X-Lisa-Cache = %q, identical body %v", got, bytes.Equal(again.Body.Bytes(), inline.Body.Bytes()))
	}
}

// gemm and syrk canonicalize to the same DFG at unroll 1, 2 and 4. Each
// must still miss on first request and get a body naming its own kernel,
// not the other's cached one.
func TestMapKernelsSharingACanonicalDFGKeySeparately(t *testing.T) {
	s := testServer(t, Config{})
	h := s.Handler()
	for _, unroll := range []int{1, 2, 4} {
		for _, k := range []string{"gemm", "syrk"} {
			w := postMap(t, h, fmt.Sprintf(`{"kernel":%q,"unroll":%d,"arch":"cgra-4x4","engine":"sa","seed":3,"maxMoves":200}`, k, unroll))
			if got := w.Header().Get("X-Lisa-Cache"); w.Code != http.StatusOK || got != "miss" {
				t.Fatalf("%s unroll %d: status %d, X-Lisa-Cache = %q, want 200 miss: %s", k, unroll, w.Code, got, w.Body)
			}
			var resp MapResponse
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
				t.Fatal(err)
			}
			if resp.Kernel != k {
				t.Fatalf("%s unroll %d: body names kernel %q", k, unroll, resp.Kernel)
			}
		}
	}
}

func TestMapLabelEngineUsesRegistry(t *testing.T) {
	s := testServer(t, Config{})
	w := postMap(t, s.Handler(), `{"kernel":"gemm","arch":"cgra-4x4","engine":"lisa","seed":1}`)
	if w.Code != http.StatusOK {
		t.Fatalf("lisa engine status %d: %s", w.Code, w.Body)
	}
	var resp MapResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Result.OK {
		t.Fatal("lisa engine failed to map gemm")
	}
}

func TestMapWithoutModelDegradesToSA(t *testing.T) {
	// No model and no on-demand training: the ladder substitutes plain SA
	// for the label engine and says so, rather than failing the request.
	reg := registry.New(registry.Config{TrainOnDemand: false})
	s := New(Config{}, reg)
	defer s.Close()
	w := postMap(t, s.Handler(), `{"kernel":"gemm","arch":"cgra-4x4","engine":"lisa"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d, want 200 via the degradation ladder: %s", w.Code, w.Body)
	}
	var resp MapResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.EngineUsed != "sa" {
		t.Fatalf("engineUsed = %q, want sa", resp.EngineUsed)
	}
	if len(resp.Result.Degraded) == 0 || !strings.Contains(resp.Result.Degraded[0], "lisa\u2192sa") && !strings.Contains(resp.Result.Degraded[0], "lisa->sa") {
		t.Fatalf("degraded chain = %v, want a lisa-to-sa rung", resp.Result.Degraded)
	}
	// Degraded results must not poison the cache.
	if got := s.cache.Len(); got != 0 {
		t.Fatalf("cache has %d entries after a degraded response, want 0", got)
	}
	w2 := postMap(t, s.Handler(), `{"kernel":"gemm","arch":"cgra-4x4","engine":"lisa"}`)
	if w2.Header().Get("X-Lisa-Cache") == "hit" {
		t.Fatal("degraded response was served from the cache")
	}
}

func TestMapBadRequests(t *testing.T) {
	s := testServer(t, Config{})
	h := s.Handler()
	cases := map[string]string{
		"both kernel and dfg":    `{"kernel":"gemm","dfg":{"name":"x"},"arch":"cgra-4x4"}`,
		"neither kernel nor dfg": `{"arch":"cgra-4x4"}`,
		"unknown arch":           `{"kernel":"gemm","arch":"tpu-9000"}`,
		"unknown engine":         `{"kernel":"gemm","arch":"cgra-4x4","engine":"magic"}`,
		"unknown kernel":         `{"kernel":"nope","arch":"cgra-4x4"}`,
		"unknown field":          `{"kernel":"gemm","arch":"cgra-4x4","turbo":true}`,
		"broken json":            `{`,
	}
	for what, body := range cases {
		if w := postMap(t, h, body); w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", what, w.Code)
		}
	}
	req := httptest.NewRequest(http.MethodGet, "/v1/map", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/map: status %d, want 405", w.Code)
	}
}

func TestAdmissionControl429(t *testing.T) {
	s := testServer(t, Config{Workers: 1, QueueDepth: 1})
	h := s.Handler()

	// Saturate the pool: one blocker on the single worker and one in the
	// one-slot queue. Each submit lands in the buffered queue at once, and
	// the first blocker's start proves the worker took it off the queue
	// before the second goes in.
	block := make(chan struct{})
	release := sync.OnceFunc(func() { close(block) })
	t.Cleanup(release) // runs before testServer's Close, which waits for the blockers
	started := make(chan struct{})
	queuedDone := make(chan struct{})
	if !s.pool.TrySubmit(func() { close(started); <-block }) {
		t.Fatal("the idle pool refused the first blocker")
	}
	<-started
	if !s.pool.TrySubmit(func() { <-block; close(queuedDone) }) {
		t.Fatal("the empty queue refused the second blocker")
	}

	w := postMap(t, h, `{"kernel":"gemm","arch":"cgra-4x4","engine":"sa"}`)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 with a saturated pool", w.Code)
	}
	// A batch is admitted item by item at the same pool: the batch answers
	// 200 and each item 429.
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/map/batch", strings.NewReader(
		`{"items":[{"kernel":"gemm","arch":"cgra-4x4","engine":"sa"},{"kernel":"atax","arch":"cgra-4x4","engine":"sa"}]}`)))
	if w.Code != http.StatusOK {
		t.Fatalf("batch status %d, want 200: %s", w.Code, w.Body)
	}
	var batch BatchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Items) != 2 {
		t.Fatalf("batch: %s", w.Body)
	}
	for i, it := range batch.Items {
		if it.Status != http.StatusTooManyRequests {
			t.Fatalf("batch item %d: %+v, want 429 with a saturated pool", i, it)
		}
	}
	snap := s.metrics.Snapshot(time.Now(), 0, 0)
	if snap.Rejected != 3 {
		t.Fatalf("rejected = %d, want 3 (one request, two batch items)", snap.Rejected)
	}

	// After the blockers drain, the same request succeeds. The queued
	// blocker finishing means the worker took it off the queue, so the
	// queue has room: the next request is admitted whatever the worker is
	// doing at that moment.
	release()
	<-queuedDone
	if w := postMap(t, h, `{"kernel":"gemm","arch":"cgra-4x4","engine":"sa"}`); w.Code != http.StatusOK {
		t.Fatalf("status %d after the pool drained, want 200: %s", w.Code, w.Body)
	}
}

func TestDiscoveryAndHealthEndpoints(t *testing.T) {
	s := testServer(t, Config{})
	h := s.Handler()

	get := func(path string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
		return w
	}

	var archs []ArchInfo
	if w := get("/v1/archs"); w.Code != http.StatusOK {
		t.Fatalf("/v1/archs: %d", w.Code)
	} else if err := json.Unmarshal(w.Body.Bytes(), &archs); err != nil {
		t.Fatal(err)
	}
	if len(archs) != len(arch.Names()) {
		t.Fatalf("archs: %d rows, want %d", len(archs), len(arch.Names()))
	}
	for _, a := range archs {
		if a.PEs <= 0 || a.MaxII <= 0 {
			t.Fatalf("arch row %+v not populated", a)
		}
		if !a.ModelReady {
			t.Fatalf("arch %s should have a pre-seeded model", a.Name)
		}
	}

	var ks []KernelInfo
	if w := get("/v1/kernels"); w.Code != http.StatusOK {
		t.Fatalf("/v1/kernels: %d", w.Code)
	} else if err := json.Unmarshal(w.Body.Bytes(), &ks); err != nil {
		t.Fatal(err)
	}
	if len(ks) != len(kernels.Names()) {
		t.Fatalf("kernels: %d rows, want %d", len(ks), len(kernels.Names()))
	}
	for _, k := range ks {
		if k.Nodes == 0 || k.Edges == 0 {
			t.Fatalf("kernel row %+v not populated", k)
		}
	}

	if w := get("/healthz"); w.Code != http.StatusOK {
		t.Fatalf("/healthz: %d", w.Code)
	}
	var m MetricsSnapshot
	if w := get("/metrics"); w.Code != http.StatusOK {
		t.Fatalf("/metrics: %d", w.Code)
	} else if err := json.Unmarshal(w.Body.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	if m.Requests["/v1/archs"] != 1 || m.Requests["/healthz"] != 1 {
		t.Fatalf("request counters wrong: %+v", m.Requests)
	}
}

func TestDrainRejectsNewWork(t *testing.T) {
	s := testServer(t, Config{})
	h := s.Handler()
	s.Close()

	if w := postMap(t, h, `{"kernel":"gemm","arch":"cgra-4x4"}`); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("map while draining: %d, want 503", w.Code)
	}
	// Liveness stays green while draining — the process is alive, it just
	// refuses new work; /readyz is what takes the node out of rotation.
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("healthz while draining: %d, want 200 (liveness)", w.Code)
	}
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: %d, want 503", w.Code)
	}
	var ready ReadyResponse
	if err := json.Unmarshal(w.Body.Bytes(), &ready); err != nil {
		t.Fatal(err)
	}
	if ready.Ready || !ready.Draining {
		t.Fatalf("readyz body %+v, want ready=false draining=true", ready)
	}
}

func TestDeadlineCapsAndStatsField(t *testing.T) {
	s := testServer(t, Config{MaxDeadline: time.Minute})
	h := s.Handler()
	w := postMap(t, h, `{"kernel":"gemm","arch":"cgra-4x4","engine":"sa","seed":2,"deadlineMs":600000,"stats":true}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	var resp MapResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Utilization == nil || resp.Utilization.II != resp.Result.II {
		t.Fatalf("stats=true returned no utilization: %+v", resp.Utilization)
	}
}
