// Distributed-serving tests: the persistent result store behind the L1
// cache, multi-node consistent-hash routing (in-process nodes over real
// HTTP), the batch endpoint, and readiness. The acceptance contracts: a
// restarted daemon serves old results from disk byte-identically with zero
// mapper invocations, and a fleet computes each distinct request exactly
// once with byte-identical bodies everywhere.
package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/lisa-go/lisa/internal/cluster"
	"github.com/lisa-go/lisa/internal/store"
)

// engineRuns sums mapper invocations across every engine of one node.
func engineRuns(t *testing.T, s *Server) int64 {
	t.Helper()
	snap := s.metrics.Snapshot(time.Now(), 0, 0)
	var total int64
	for _, e := range snap.Engines {
		total += e.Count
	}
	return total
}

func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestStoreRestartServesFromDiskZeroMapperRuns(t *testing.T) {
	dir := t.TempDir()
	body := `{"kernel":"gemm","arch":"cgra-4x4","engine":"sa","seed":5}`

	s1 := testServer(t, Config{Store: openStore(t, dir)})
	first := postMap(t, s1.Handler(), body)
	if first.Code != http.StatusOK {
		t.Fatalf("first request: %d: %s", first.Code, first.Body)
	}
	if got := first.Header().Get(cacheHeader); got != "miss" {
		t.Fatalf("first request %s = %q, want miss", cacheHeader, got)
	}
	if st := s1.cfg.Store; st.Len() != 1 {
		t.Fatalf("store holds %d entries after one compute, want 1", st.Len())
	}

	// "Restart": a fresh server (empty L1, fresh metrics) over a reopened
	// store directory must serve the same request from disk — byte
	// identical, zero mapper invocations.
	s2 := testServer(t, Config{Store: openStore(t, dir)})
	second := postMap(t, s2.Handler(), body)
	if second.Code != http.StatusOK {
		t.Fatalf("post-restart request: %d: %s", second.Code, second.Body)
	}
	if got := second.Header().Get(cacheHeader); got != "store" {
		t.Fatalf("post-restart %s = %q, want store", cacheHeader, got)
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Fatal("post-restart body differs from the original compute")
	}
	if runs := engineRuns(t, s2); runs != 0 {
		t.Fatalf("restarted daemon ran the mapper %d times, want 0", runs)
	}

	// The store hit was promoted to L1: the next request skips the disk.
	third := postMap(t, s2.Handler(), body)
	if got := third.Header().Get(cacheHeader); got != "hit" {
		t.Fatalf("third request %s = %q, want hit (L1 promotion)", cacheHeader, got)
	}

	// /metrics reports both tiers.
	w := httptest.NewRecorder()
	s2.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	var snap MetricsSnapshot
	if err := json.Unmarshal(w.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Store == nil || snap.Store.Hits != 1 || snap.Store.Entries != 1 {
		t.Fatalf("store snapshot %+v, want hits=1 entries=1", snap.Store)
	}
	if snap.Cache.Bytes <= 0 || snap.Cache.Entries != 1 {
		t.Fatalf("cache gauges entries=%d bytes=%d, want 1 entry with bytes > 0", snap.Cache.Entries, snap.Cache.Bytes)
	}
}

func TestCacheByteBound(t *testing.T) {
	c := NewCache(10, 10)
	c.Add("a", []byte("aaaaaa")) // 6 bytes
	c.Add("b", []byte("bbbbbb")) // 12 total > 10: evict LRU "a"
	if _, ok := c.Get("a"); ok {
		t.Fatal("byte bound did not evict the LRU entry")
	}
	if _, ok := c.Get("b"); !ok {
		t.Fatal("newest entry evicted")
	}
	if c.Len() != 1 || c.Bytes() != 6 {
		t.Fatalf("gauges = %d entries / %d bytes, want 1 / 6", c.Len(), c.Bytes())
	}

	// A single oversized body is still cached: serving it beats recomputing
	// it on every request.
	over := NewCache(10, 4)
	over.Add("x", []byte("xxxxxxxx"))
	if _, ok := over.Get("x"); !ok || over.Len() != 1 {
		t.Fatal("oversized singleton evicted")
	}
	over.Add("y", []byte("yy")) // displaces x: 10 bytes > 4, x is LRU
	if _, ok := over.Get("x"); ok {
		t.Fatal("oversized entry survived a displacing add")
	}
}

// TestChaosStoreReadFault: an injected disk-read failure is a forced miss —
// the daemon recomputes, serves byte-identical bytes, and never dies.
func TestChaosStoreReadFault(t *testing.T) {
	dir := t.TempDir()
	body := `{"kernel":"atax","arch":"cgra-4x4","engine":"sa","seed":9}`

	s1 := testServer(t, Config{Store: openStore(t, dir)})
	first := postMap(t, s1.Handler(), body)
	if first.Code != http.StatusOK {
		t.Fatalf("seed request: %d", first.Code)
	}

	// Fresh server, empty L1: the lookup must go to the store, where the
	// fault fires and forces a recompute.
	s2 := testServer(t, Config{Store: openStore(t, dir)})
	armFaults(t, "store.read=error:1", 3)
	h := s2.Handler()
	under := postMap(t, h, body)
	if under.Code != http.StatusOK {
		t.Fatalf("request under store.read fault: %d: %s", under.Code, under.Body)
	}
	if !bytes.Equal(under.Body.Bytes(), first.Body.Bytes()) {
		t.Fatal("recomputed body differs — determinism broken by a read fault")
	}
	if runs := engineRuns(t, s2); runs != 1 {
		t.Fatalf("mapper ran %d times under a read fault, want 1 (forced miss)", runs)
	}
	if s2.metrics.ctr[ctrStoreReadErrors].Load() == 0 {
		t.Fatal("store read errors not counted")
	}
	alive(t, h)
}

// TestChaosStoreWriteFault: a write killed mid-entry costs persistence,
// never the response — and the torn file is dropped on the next restart.
func TestChaosStoreWriteFault(t *testing.T) {
	dir := t.TempDir()
	body := `{"kernel":"gemm","arch":"cgra-4x4","engine":"sa","seed":13}`

	s := testServer(t, Config{Store: openStore(t, dir)})
	h := s.Handler()
	armFaults(t, "store.write=error:1", 5)
	under := postMap(t, h, body)
	if under.Code != http.StatusOK {
		t.Fatalf("request under store.write fault: %d: %s", under.Code, under.Body)
	}
	if n := s.metrics.ctr[ctrStoreWriteErrors].Load(); n != 1 {
		t.Fatalf("write errors = %d, want 1", n)
	}
	// L1 still has the body: the write failure is invisible to clients.
	again := postMap(t, h, body)
	if got := again.Header().Get(cacheHeader); got != "hit" {
		t.Fatalf("%s = %q after a write fault, want hit", cacheHeader, got)
	}
	alive(t, h)

	// The fault left a torn file under the final name (a dying writer's
	// worst case). Restart recovery must drop it and carry on.
	st := openStore(t, dir)
	if st.Len() != 0 || st.Dropped() != 1 {
		t.Fatalf("recovery census = %d entries / %d dropped, want 0 / 1", st.Len(), st.Dropped())
	}
}

func TestBatchMixedOutcomes(t *testing.T) {
	s := testServer(t, Config{Workers: 2})
	h := s.Handler()

	// Reference: the single-endpoint body for the same request.
	single := postMap(t, h, `{"kernel":"atax","arch":"cgra-4x4","engine":"sa","seed":3}`)
	if single.Code != http.StatusOK {
		t.Fatalf("reference request: %d", single.Code)
	}

	batchBody := `{"items":[
		{"kernel":"atax","arch":"cgra-4x4","engine":"sa","seed":3},
		{"kernel":"atax","arch":"cgra-4x4","engine":"sa","seed":3},
		{"kernel":"gemm","arch":"no-such-arch"},
		{"kernel":"gemm","dfg":{"x":1},"arch":"cgra-4x4"}
	]}`
	post := func() *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/map/batch", strings.NewReader(batchBody)))
		return w
	}
	w := post()
	if w.Code != http.StatusOK {
		t.Fatalf("batch: %d: %s", w.Code, w.Body)
	}
	var resp BatchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Items) != 4 || resp.OK != 2 || resp.Failed != 2 {
		t.Fatalf("batch outcome ok=%d failed=%d items=%d, want 2/2/4", resp.OK, resp.Failed, len(resp.Items))
	}
	// Item results arrive in request order; the 200s embed the exact
	// /v1/map document (minus its trailing newline).
	want := bytes.TrimSuffix(single.Body.Bytes(), []byte("\n"))
	if !bytes.Equal(resp.Items[0].Response, want) {
		t.Fatalf("batch item body differs from the single endpoint:\n%s\n%s", resp.Items[0].Response, want)
	}
	if !bytes.Equal(resp.Items[0].Response, resp.Items[1].Response) {
		t.Fatal("identical items answered differently")
	}
	if resp.Items[2].Status != http.StatusBadRequest || !strings.Contains(resp.Items[2].Error, "no-such-arch") {
		t.Fatalf("bad-arch item: %+v", resp.Items[2])
	}
	if resp.Items[3].Status != http.StatusBadRequest || !strings.Contains(resp.Items[3].Error, "exactly one") {
		t.Fatalf("kernel+dfg item: %+v", resp.Items[3])
	}

	// Identical batches answer byte-identically (second run is all cache
	// hits, but dispositions are headers-only, never body).
	if again := post(); !bytes.Equal(again.Body.Bytes(), w.Body.Bytes()) {
		t.Fatal("repeated batch body differs")
	}

	snap := s.metrics.Snapshot(time.Now(), 0, 0)
	if snap.Batch == nil || snap.Batch.Requests != 2 || snap.Batch.Items != 8 || snap.Batch.FailedItems != 4 {
		t.Fatalf("batch counters %+v, want requests=2 items=8 failed=4", snap.Batch)
	}
}

func TestBatchValidation(t *testing.T) {
	s := testServer(t, Config{MaxBatchItems: 2})
	h := s.Handler()
	post := func(body string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/map/batch", strings.NewReader(body)))
		return w
	}
	if w := post(`{"items":[]}`); w.Code != http.StatusBadRequest {
		t.Fatalf("empty batch: %d, want 400", w.Code)
	}
	item := `{"kernel":"gemm","arch":"cgra-4x4"}`
	if w := post(`{"items":[` + item + `,` + item + `,` + item + `]}`); w.Code != http.StatusBadRequest {
		t.Fatalf("oversized batch: %d, want 400", w.Code)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/map/batch", nil))
	if w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET batch: %d, want 405", w.Code)
	}
}

// TestBatchItemDecodeErrorsFailAlone: an item that does not decode as a
// MapRequest, by an unknown field or a type error, fails alone with the
// answer /v1/map gives the same bytes, and the batch answers 200.
func TestBatchItemDecodeErrorsFailAlone(t *testing.T) {
	s := testServer(t, Config{})
	h := s.Handler()
	good := `{"kernel":"gemm","arch":"cgra-4x4","engine":"greedy"}`
	for _, bad := range []string{`{"kernel":"gemm","arch":"cgra-4x4","turbo":1}`, `{"kernel":"gemm","arch":"cgra-4x4","seed":"7"}`, `[]`} {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/map/batch", strings.NewReader(`{"items":[`+good+`,`+bad+`]}`)))
		var resp BatchResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); w.Code != http.StatusOK || err != nil || len(resp.Items) != 2 {
			t.Fatalf("batch with %s: %d %s", bad, w.Code, w.Body)
		}
		if resp.OK != 1 || resp.Failed != 1 || resp.Items[0].Status != http.StatusOK {
			t.Fatalf("batch with %s: %s, want the good item 200 and the bad one failed", bad, w.Body)
		}
		single := postMap(t, h, bad)
		var eb errorBody
		if err := json.Unmarshal(single.Body.Bytes(), &eb); err != nil {
			t.Fatal(err)
		}
		if it := resp.Items[1]; single.Code != http.StatusBadRequest || it.Status != single.Code || it.Error != eb.Error {
			t.Fatalf("item %s: %d %q; /v1/map: %d %q", bad, it.Status, it.Error, single.Code, eb.Error)
		}
	}
}

// clusterNode is one in-process daemon reachable over real HTTP.
type clusterNode struct {
	srv *Server
	url string
}

// handlerSlot lets the HTTP listener exist before the Server that backs it
// (the Server's cluster config needs every listener URL first).
type handlerSlot struct {
	mu sync.RWMutex
	h  http.Handler
}

func (hs *handlerSlot) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	hs.mu.RLock()
	h := hs.h
	hs.mu.RUnlock()
	if h == nil {
		http.Error(w, "starting", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

func (hs *handlerSlot) set(h http.Handler) {
	hs.mu.Lock()
	hs.h = h
	hs.mu.Unlock()
}

// testCluster starts n nodes that all know the same peer list.
func testCluster(t *testing.T, n int) []*clusterNode {
	t.Helper()
	slots := make([]*handlerSlot, n)
	urls := make([]string, n)
	for i := range slots {
		slots[i] = &handlerSlot{}
		hts := httptest.NewServer(slots[i])
		t.Cleanup(hts.Close)
		urls[i] = hts.URL
	}
	nodes := make([]*clusterNode, n)
	for i := range nodes {
		cl, err := cluster.New(cluster.Config{Self: urls[i], Peers: urls})
		if err != nil {
			t.Fatal(err)
		}
		s := testServer(t, Config{Workers: 2, Cluster: cl})
		slots[i].set(s.Handler())
		nodes[i] = &clusterNode{srv: s, url: urls[i]}
	}
	return nodes
}

// post sends a real HTTP mapping request to a node.
func (n *clusterNode) post(t *testing.T, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(n.url+"/v1/map", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// peerRoutedBody returns the first of up to 1000 seeded requests, built by
// formatting format with the seed, whose key s's ring assigns to another
// node. How the ring splits the keys depends on the listeners' ports, so a
// test that needs a routed request asks the ring for one instead of trying
// a handful of seeds.
func peerRoutedBody(t *testing.T, s *Server, format string) string {
	t.Helper()
	cl := s.cfg.Cluster
	for seed := 1; seed <= 1000; seed++ {
		body := fmt.Sprintf(format, seed)
		job, err := s.prepare([]byte(body))
		if err != nil {
			t.Fatal(err)
		}
		if cl.Owner(job.key) != cl.Self() {
			return body
		}
	}
	t.Fatal("the ring gives this node every key across 1000 seeds; ring broken?")
	return ""
}

// TestClusterComputesOnceFleetWide is the multi-node acceptance test: the
// same request against every node of a 3-node fleet is computed exactly
// once, everyone answers byte-identically, and the detour is visible only
// in headers and counters.
func TestClusterComputesOnceFleetWide(t *testing.T) {
	nodes := testCluster(t, 3)
	body := `{"kernel":"atax","arch":"cgra-4x4","engine":"sa","seed":11}`

	bodies := make([][]byte, len(nodes))
	vias := make([]string, len(nodes))
	for i, n := range nodes {
		resp, b := n.post(t, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("node %d: %d: %s", i, resp.StatusCode, b)
		}
		bodies[i] = b
		vias[i] = resp.Header.Get(clusterHeader)
		if vias[i] == "" {
			t.Fatalf("node %d: no %s header in cluster mode", i, clusterHeader)
		}
	}
	for i := 1; i < len(bodies); i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("node %d body differs from node 0", i)
		}
	}

	var total int64
	proxied := 0
	for i, n := range nodes {
		total += engineRuns(t, n.srv)
		if vias[i] == "proxied" {
			proxied++
		}
	}
	if total != 1 {
		t.Fatalf("fleet ran the mapper %d times for one distinct request, want exactly 1", total)
	}
	if proxied == 0 {
		t.Fatal("no node proxied; the request cannot have been routed")
	}

	// Every node now holds the result locally: repeat requests are L1 hits
	// with no further compute anywhere.
	for i, n := range nodes {
		resp, b := n.post(t, body)
		if got := resp.Header.Get(cacheHeader); got != "hit" {
			t.Fatalf("node %d repeat: %s = %q, want hit", i, cacheHeader, got)
		}
		if !bytes.Equal(b, bodies[0]) {
			t.Fatalf("node %d repeat body differs", i)
		}
	}
	var after int64
	for _, n := range nodes {
		after += engineRuns(t, n.srv)
	}
	if after != 1 {
		t.Fatalf("repeat requests re-ran the mapper (%d total runs)", after)
	}
}

// TestClusterFallbackWhenOwnerUnreachable: keys owned by a dead peer are
// computed locally — labeled, counted, and byte-identical to what a
// single-node daemon produces.
func TestClusterFallbackWhenOwnerUnreachable(t *testing.T) {
	// A listener that is immediately closed: a realistic dead peer URL.
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	slot := &handlerSlot{}
	live := httptest.NewServer(slot)
	t.Cleanup(live.Close)
	cl, err := cluster.New(cluster.Config{Self: live.URL, Peers: []string{live.URL, deadURL}})
	if err != nil {
		t.Fatal(err)
	}
	s := testServer(t, Config{Workers: 2, Cluster: cl})
	slot.set(s.Handler())
	node := &clusterNode{srv: s, url: live.URL}

	solo := testServer(t, Config{Workers: 2})

	body := peerRoutedBody(t, s, `{"kernel":"gemm","arch":"cgra-4x4","engine":"sa","seed":%d}`)
	resp, b := node.post(t, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: %d: %s", body, resp.StatusCode, b)
	}
	if got := resp.Header.Get(clusterHeader); got != "fallback-local" {
		t.Fatalf("%s: key owned by the dead peer: %s = %q, want fallback-local", body, clusterHeader, got)
	}
	ref := postMap(t, solo.Handler(), body)
	if !bytes.Equal(b, ref.Body.Bytes()) {
		t.Fatalf("%s: fallback body differs from a single-node daemon", body)
	}
	if s.metrics.ctr[ctrFallbacks].Load() == 0 {
		t.Fatal("fallbacks not counted")
	}
}

// TestChaosPeerRPCFault: an injected peer-RPC failure degrades a proxied
// request to local compute; once disarmed the result serves from the local
// cache byte-identically.
func TestChaosPeerRPCFault(t *testing.T) {
	nodes := testCluster(t, 2)
	armFaults(t, "peer.rpc=error:1", 7)

	hitBody := peerRoutedBody(t, nodes[0].srv, `{"kernel":"atax","arch":"cgra-4x4","engine":"sa","seed":%d}`)
	resp, hit := nodes[0].post(t, hitBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s under peer.rpc fault: %d: %s", hitBody, resp.StatusCode, hit)
	}
	if got := resp.Header.Get(clusterHeader); got != "fallback-local" {
		t.Fatalf("%s under peer.rpc fault: %s = %q, want fallback-local", hitBody, clusterHeader, got)
	}
	alive(t, nodes[0].srv.Handler())

	// The fallback result was cached locally, so the repeat request needs
	// no peer at all — it must hit L1 even with the fault still armed.
	resp, b := nodes[0].post(t, hitBody)
	if got := resp.Header.Get(cacheHeader); got != "hit" {
		t.Fatalf("post-fault repeat: %s = %q, want hit", cacheHeader, got)
	}
	if !bytes.Equal(b, hit) {
		t.Fatal("post-fault repeat differs from the fallback body")
	}
}

func TestReadyzStoreAndPeers(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	slot := &handlerSlot{}
	live := httptest.NewServer(slot)
	t.Cleanup(live.Close)
	cl, err := cluster.New(cluster.Config{Self: live.URL, Peers: []string{live.URL, deadURL}})
	if err != nil {
		t.Fatal(err)
	}
	s := testServer(t, Config{Store: openStore(t, t.TempDir()), Cluster: cl})
	slot.set(s.Handler())
	h := s.Handler()

	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("/readyz: %d: %s", w.Code, w.Body)
	}
	var ready ReadyResponse
	if err := json.Unmarshal(w.Body.Bytes(), &ready); err != nil {
		t.Fatal(err)
	}
	if !ready.Ready {
		t.Fatalf("ready=false: %+v", ready)
	}
	if ready.Store == nil || !ready.Store.Writable {
		t.Fatalf("store block %+v, want writable", ready.Store)
	}
	if len(ready.Models) == 0 {
		t.Fatal("no models listed")
	}
	if len(ready.Peers) != 2 {
		t.Fatalf("peers = %d rows, want 2", len(ready.Peers))
	}
	// A dead peer is reported unhealthy but does not cost readiness: the
	// fallback path keeps a lone survivor serving.
	for _, p := range ready.Peers {
		if p.URL == deadURL && p.Healthy {
			t.Fatal("dead peer reported healthy after a probe")
		}
		if p.URL == live.URL && (!p.Healthy || !p.Self) {
			t.Fatalf("self row wrong: %+v", p)
		}
	}
}
