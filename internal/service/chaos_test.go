// Chaos suite: the daemon under deterministic fault injection. Every test
// arms a fault plan (fixed seed), drives real handler traffic — under
// -race in CI — and asserts the crash-proofing contract: no dead daemon,
// degraded responses labeled and deterministic, the cache never poisoned,
// and byte-identical healthy responses once faults are disarmed.
package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/lisa-go/lisa/internal/fault"
	"github.com/lisa-go/lisa/internal/registry"
)

// armFaults activates a fault plan for the duration of the test.
func armFaults(t *testing.T, spec string, seed int64) {
	t.Helper()
	plan, err := fault.ParsePlan(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	fault.Activate(plan)
	t.Cleanup(fault.Deactivate)
}

// alive asserts the daemon still answers /healthz and /metrics after the
// chaos of the calling test.
func alive(t *testing.T, h http.Handler) {
	t.Helper()
	for _, path := range []string{"/healthz", "/metrics"} {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
		if w.Code != http.StatusOK {
			t.Fatalf("daemon dead: GET %s = %d", path, w.Code)
		}
	}
}

// mapResp decodes a /v1/map body.
func mapResp(t *testing.T, w *httptest.ResponseRecorder) MapResponse {
	t.Helper()
	var resp MapResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("bad /v1/map body: %v: %s", err, w.Body)
	}
	return resp
}

// TestChaosGNNTrainFault: a poisoned on-demand training degrades label
// engines to sa, exactly once per target, with the failure cached.
func TestChaosGNNTrainFault(t *testing.T) {
	armFaults(t, "gnn.train=error:1", 1)
	reg := registry.New(registry.Config{TrainOnDemand: true})
	s := New(Config{}, reg)
	defer s.Close()
	h := s.Handler()

	body := `{"kernel":"atax","arch":"cgra-4x4","engine":"lisa","seed":3}`
	first := postMap(t, h, body)
	if first.Code != http.StatusOK {
		t.Fatalf("status %d: %s", first.Code, first.Body)
	}
	resp := mapResp(t, first)
	if resp.EngineUsed != "sa" || len(resp.Result.Degraded) != 1 {
		t.Fatalf("want one lisa-to-sa rung, got engineUsed=%q degraded=%v", resp.EngineUsed, resp.Result.Degraded)
	}
	if s.cache.Len() != 0 {
		t.Fatal("degraded response entered the cache")
	}
	// Deterministic: the same request is answered byte-identically, and the
	// cached training failure means no second training attempt.
	second := postMap(t, h, body)
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Fatalf("degraded responses differ:\n%s\n%s", first.Body, second.Body)
	}
	if n := fault.Counts()[fault.GNNTrain]; n != 1 {
		t.Fatalf("training ran %d times for one target, want 1 (failure not cached)", n)
	}
	alive(t, h)
}

// TestChaosMapperAnnealFault: error and panic modes at the anneal site walk
// the full ladder to greedy; both are labeled and deterministic.
func TestChaosMapperAnnealFault(t *testing.T) {
	for _, mode := range []string{"error", "panic"} {
		t.Run(mode, func(t *testing.T) {
			armFaults(t, "mapper.anneal="+mode+":1", 1)
			s := testServer(t, Config{})
			h := s.Handler()

			body := `{"kernel":"atax","arch":"cgra-4x4","engine":"lisa","seed":3}`
			first := postMap(t, h, body)
			if first.Code != http.StatusOK {
				t.Fatalf("status %d: %s", first.Code, first.Body)
			}
			resp := mapResp(t, first)
			if resp.EngineUsed != "greedy" || len(resp.Result.Degraded) != 2 {
				t.Fatalf("want lisa→sa→greedy, got engineUsed=%q degraded=%v", resp.EngineUsed, resp.Result.Degraded)
			}
			if !resp.Result.OK {
				t.Fatal("greedy rung failed a kernel it can map")
			}
			if s.cache.Len() != 0 {
				t.Fatal("degraded response entered the cache")
			}
			second := postMap(t, h, body)
			if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
				t.Fatalf("degraded responses differ:\n%s\n%s", first.Body, second.Body)
			}
			alive(t, h)
		})
	}
}

// TestChaosRouterFault: a failing router takes out every engine including
// greedy; the response is still a labeled 200 (OK=false), never a crash.
func TestChaosRouterFault(t *testing.T) {
	armFaults(t, "router.route=error:1", 1)
	s := testServer(t, Config{})
	h := s.Handler()

	w := postMap(t, h, `{"kernel":"atax","arch":"cgra-4x4","engine":"lisa","seed":3}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	resp := mapResp(t, w)
	if len(resp.Result.Degraded) != 2 {
		t.Fatalf("want the full ladder walked, got %v", resp.Result.Degraded)
	}
	if resp.Result.OK {
		t.Fatal("mapping claims OK with every route injected to fail")
	}
	if s.cache.Len() != 0 {
		t.Fatal("failed mapping entered the cache")
	}
	alive(t, h)
}

// TestChaosCacheGetFault: a failing cache lookup is a forced miss — the
// request is recomputed, the answer stays correct and byte-identical.
func TestChaosCacheGetFault(t *testing.T) {
	armFaults(t, "cache.get=error:1", 1)
	s := testServer(t, Config{})
	h := s.Handler()

	body := `{"kernel":"atax","arch":"cgra-4x4","engine":"sa","seed":3}`
	first := postMap(t, h, body)
	second := postMap(t, h, body)
	for _, w := range []*httptest.ResponseRecorder{first, second} {
		if w.Code != http.StatusOK {
			t.Fatalf("status %d: %s", w.Code, w.Body)
		}
		if got := w.Header().Get("X-Lisa-Cache"); got != "miss" {
			t.Fatalf("X-Lisa-Cache = %q, want miss while lookups fail", got)
		}
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Fatalf("recomputed responses differ:\n%s\n%s", first.Body, second.Body)
	}
	resp := mapResp(t, first)
	if len(resp.Result.Degraded) != 0 {
		t.Fatalf("a cache fault must not degrade the mapping: %v", resp.Result.Degraded)
	}
	alive(t, h)
}

// TestChaosPoolSubmitFault: a failing admission is backpressure — 429, not
// a crash and not a 500.
func TestChaosPoolSubmitFault(t *testing.T) {
	armFaults(t, "pool.submit=error:1", 1)
	s := testServer(t, Config{})
	h := s.Handler()

	w := postMap(t, h, `{"kernel":"atax","arch":"cgra-4x4","engine":"sa","seed":3}`)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", w.Code, w.Body)
	}
	alive(t, h)
}

// TestChaosBatchItemPanic: a panic inside one batch item answers that item
// 500 with the text /v1/map's panic fence writes, counts one panic, and
// leaves the batch itself a 200.
func TestChaosBatchItemPanic(t *testing.T) {
	armFaults(t, "cache.get=panic:1", 1)
	s := testServer(t, Config{})
	h := s.Handler()

	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/map/batch", strings.NewReader(
		`{"items":[{"kernel":"atax","arch":"cgra-4x4","engine":"sa","seed":3}]}`)))
	if w.Code != http.StatusOK {
		t.Fatalf("batch: %d: %s", w.Code, w.Body)
	}
	var resp BatchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Items) != 1 || resp.Failed != 1 {
		t.Fatalf("want one failed item, got %s", w.Body)
	}
	it := resp.Items[0]
	if it.Status != http.StatusInternalServerError || !strings.Contains(it.Error, "internal error: ") || !strings.Contains(it.Error, "cache.get") {
		t.Fatalf("item %+v, want a 500 naming cache.get", it)
	}
	if got := s.metrics.Snapshot(time.Now(), 0, 0).Panics; got != 1 {
		t.Fatalf("panics = %d, want 1", got)
	}
	alive(t, h)
}

// TestChaosRegistryLoadFault: poisoned model-file loads fail the reload
// rescan gracefully and leave no half-registered state behind.
func TestChaosRegistryLoadFault(t *testing.T) {
	armFaults(t, "registry.load=error:1", 1)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "cgra-4x4.json"), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	reg := registry.New(registry.Config{TrainOnDemand: false})
	s := New(Config{ModelsDir: dir}, reg)
	defer s.Close()
	h := s.Handler()

	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/reload", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("/v1/reload: %d %s", w.Code, w.Body)
	}
	var resp ReloadResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Loaded) != 0 || len(resp.Errors) != 1 {
		t.Fatalf("want one load error and nothing loaded, got %+v", resp)
	}
	if reg.Has("cgra-4x4") {
		t.Fatal("model registered despite the injected load failure")
	}
	alive(t, h)
}

// TestChaosConcurrentProbabilisticFaults is the -race stress: many
// concurrent requests with a 50% anneal-panic plan. Every response must be
// a 200, labeled iff degraded; only clean results may enter the cache; and
// a second identical round must reproduce every body byte-for-byte (the
// fault stream is keyed by plan seed and request seed, not by timing).
func TestChaosConcurrentProbabilisticFaults(t *testing.T) {
	armFaults(t, "mapper.anneal=panic:0.5", 7)
	s := testServer(t, Config{})
	h := s.Handler()

	const n = 24
	round := func() [][]byte {
		bodies := make([][]byte, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				body := fmt.Sprintf(`{"kernel":"atax","arch":"cgra-4x4","engine":"lisa","seed":%d}`, i+1)
				w := postMap(t, h, body)
				if w.Code != http.StatusOK {
					t.Errorf("seed %d: status %d: %s", i+1, w.Code, w.Body)
					return
				}
				bodies[i] = append([]byte(nil), w.Body.Bytes()...)
			}(i)
		}
		wg.Wait()
		return bodies
	}

	first := round()
	if t.Failed() {
		t.FailNow()
	}
	degraded := 0
	for i, b := range first {
		var resp MapResponse
		if err := json.Unmarshal(b, &resp); err != nil {
			t.Fatal(err)
		}
		if len(resp.Result.Degraded) > 0 {
			degraded++
			if resp.EngineUsed != "greedy" {
				t.Fatalf("seed %d: degraded %v but engineUsed=%q", i+1, resp.Result.Degraded, resp.EngineUsed)
			}
		} else if resp.EngineUsed != "" {
			t.Fatalf("seed %d: clean response names engineUsed=%q", i+1, resp.EngineUsed)
		}
	}
	if degraded == 0 || degraded == n {
		t.Fatalf("p=0.5 plan degraded %d/%d requests; the fault stream is not firing probabilistically", degraded, n)
	}
	if got := s.cache.Len(); got != n-degraded {
		t.Fatalf("cache holds %d entries, want the %d clean results only", got, n-degraded)
	}

	// Determinism: an identical second round (same plan seed, same request
	// seeds) reproduces every body — degraded ones are recomputed, clean
	// ones come from the cache; both must match round one.
	for i, b := range round() {
		if !bytes.Equal(first[i], b) {
			t.Fatalf("seed %d: rounds differ:\n%s\n%s", i+1, first[i], b)
		}
	}
	alive(t, h)
}

// TestChaosDisabledIsByteIdenticalToSeed: with no plan armed, /v1/map
// bodies carry none of the robustness fields (all omitempty), so the wire
// format is byte-identical to the pre-fault-layer daemon.
func TestChaosDisabledIsByteIdenticalToSeed(t *testing.T) {
	if fault.Enabled() {
		t.Fatal("a fault plan leaked into this test")
	}
	s := testServer(t, Config{})
	w := postMap(t, s.Handler(), `{"kernel":"atax","arch":"cgra-4x4","engine":"lisa","seed":3}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	for _, field := range []string{"degraded", "engineUsed", "deadlineExceeded", "modelError", "defect"} {
		if bytes.Contains(w.Body.Bytes(), []byte(`"`+field+`"`)) {
			t.Fatalf("healthy response leaks the %q field: %s", field, w.Body)
		}
	}
	var snap MetricsSnapshot
	mw := httptest.NewRecorder()
	s.Handler().ServeHTTP(mw, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if err := json.Unmarshal(mw.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Faults != nil {
		t.Fatalf("/metrics reports fault counters with no plan armed: %v", snap.Faults)
	}
}
