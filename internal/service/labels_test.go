package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/lisa-go/lisa/internal/attr"
	"github.com/lisa-go/lisa/internal/dfg"
	"github.com/lisa-go/lisa/internal/gnn"
	"github.com/lisa-go/lisa/internal/kernels"
	"github.com/lisa-go/lisa/internal/labels"
	"github.com/lisa-go/lisa/internal/mapper"
	"github.com/lisa-go/lisa/internal/registry"
	"github.com/lisa-go/lisa/internal/tensor"
	"github.com/lisa-go/lisa/internal/traingen"
)

func postLabels(t *testing.T, h http.Handler, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/labels", strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func TestLabelsBatchEndpoint(t *testing.T) {
	s := testServer(t, Config{})
	h := s.Handler()

	var dfgJSON bytes.Buffer
	if err := kernels.MustByName("doitgen").WriteJSON(&dfgJSON); err != nil {
		t.Fatal(err)
	}
	w := postLabels(t, h, fmt.Sprintf(
		`{"arch":"cgra-4x4","kernels":["gemm","syrk"],"dfgs":[%s]}`, dfgJSON.String()))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	var resp LabelsResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Labels) != 3 {
		t.Fatalf("got %d rows, want 3", len(resp.Labels))
	}
	for i, wantName := range []string{"gemm", "syrk", "doitgen"} {
		row := resp.Labels[i]
		if row.Name != wantName {
			t.Fatalf("row %d name %q, want %q (request order must be preserved)", i, row.Name, wantName)
		}
		g := kernels.MustByName(wantName)
		if row.Nodes != g.NumNodes() || len(row.Order) != g.NumNodes() {
			t.Fatalf("%s: %d nodes, %d order values, want %d", wantName, row.Nodes, len(row.Order), g.NumNodes())
		}
		if len(row.Spatial) != g.NumEdges() || len(row.Temporal) != g.NumEdges() {
			t.Fatalf("%s: edge label lengths %d/%d, want %d", wantName, len(row.Spatial), len(row.Temporal), g.NumEdges())
		}
		for e, v := range row.Temporal {
			if v < 1 {
				t.Fatalf("%s: temporal[%d] = %v, below the clamp of 1", wantName, e, v)
			}
		}
		for j := 1; j < len(row.SameLevel); j++ {
			a, b := row.SameLevel[j-1], row.SameLevel[j]
			if a.A > b.A || (a.A == b.A && a.B >= b.B) {
				t.Fatalf("%s: sameLevel not sorted at %d: %+v then %+v", wantName, j, a, b)
			}
		}
	}

	// Deterministic bodies: the identical request must serialize identically.
	again := postLabels(t, h, fmt.Sprintf(
		`{"arch":"cgra-4x4","kernels":["gemm","syrk"],"dfgs":[%s]}`, dfgJSON.String()))
	if !bytes.Equal(w.Body.Bytes(), again.Body.Bytes()) {
		t.Fatal("identical /v1/labels requests produced different bodies")
	}

	// A row must not depend on the rest of its batch.
	single := postLabels(t, h, `{"arch":"cgra-4x4","kernels":["syrk"]}`)
	var sr LabelsResponse
	if err := json.Unmarshal(single.Body.Bytes(), &sr); err != nil {
		t.Fatal(err)
	}
	batchRow, _ := json.Marshal(resp.Labels[1])
	singleRow, _ := json.Marshal(sr.Labels[0])
	if !bytes.Equal(batchRow, singleRow) {
		t.Fatalf("batched syrk row differs from single-DFG row:\n%s\n%s", batchRow, singleRow)
	}
}

func TestLabelsBadRequests(t *testing.T) {
	s := testServer(t, Config{})
	h := s.Handler()
	big := `{"arch":"cgra-4x4","kernels":[` + strings.Repeat(`"gemm",`, maxLabelBatch) + `"gemm"]}`
	cases := map[string]string{
		"unknown arch":   `{"arch":"tpu-9000","kernels":["gemm"]}`,
		"unknown kernel": `{"arch":"cgra-4x4","kernels":["nope"]}`,
		"empty batch":    `{"arch":"cgra-4x4"}`,
		"oversized":      big,
		"broken dfg":     `{"arch":"cgra-4x4","dfgs":[{"nodes":"garbage"}]}`,
		"unknown field":  `{"arch":"cgra-4x4","kernels":["gemm"],"turbo":true}`,
		"broken json":    `{`,
	}
	//lisa:vet-ok maprange each case asserts independently; execution order cannot change the verdict
	for what, body := range cases {
		if w := postLabels(t, h, body); w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", what, w.Code)
		}
	}
	req := httptest.NewRequest(http.MethodGet, "/v1/labels", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/labels: status %d, want 405", w.Code)
	}
}

func TestLabelsWithoutModel503(t *testing.T) {
	// No model and no on-demand training: unlike /v1/map (which degrades to
	// plain SA), a labels request has nothing to degrade to — 503 tells the
	// client to train or reload first.
	reg := registry.New(registry.Config{TrainOnDemand: false})
	s := New(Config{}, reg)
	defer s.Close()
	w := postLabels(t, s.Handler(), `{"arch":"cgra-4x4","kernels":["gemm"]}`)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", w.Code, w.Body)
	}
}

// labelsFixture is a server with a lightly trained cgra-4x4 model and a pool
// of DFGs of the three kinds a labels request carries.
type labelsFixture struct {
	h      http.Handler
	model  *gnn.Model
	named  []string
	inline [][]byte // unrolled kernels and §V random DFGs, as JSON documents
}

func newLabelsFixture(t *testing.T) *labelsFixture {
	t.Helper()
	var samples []gnn.Sample
	for s := int64(0); s < 4; s++ {
		set := attr.Generate(dfg.Random(rand.New(rand.NewSource(s)), dfg.DefaultRandomConfig(), "train"))
		samples = append(samples, gnn.Sample{Set: set, Lbl: labels.Initial(set.An)})
	}
	m := gnn.NewModel(rand.New(rand.NewSource(5)), "cgra-4x4")
	m.Train(samples, gnn.TrainConfig{Epochs: 3, LR: 0.005, WeightDecay: 0.0001})
	reg := registry.New(registry.Config{TrainOnDemand: false})
	reg.Put(m)
	s := New(Config{}, reg)
	t.Cleanup(s.Close)

	f := &labelsFixture{h: s.Handler(), model: m, named: kernels.Names()}
	var docs []*dfg.Graph
	for _, k := range kernels.Names() {
		docs = append(docs, dfg.Unroll(kernels.MustByName(k), 2), dfg.Unroll(kernels.MustByName(k), 4))
	}
	for s := int64(10); s < 34; s++ {
		docs = append(docs, dfg.Random(rand.New(rand.NewSource(s)), dfg.DefaultRandomConfig(), fmt.Sprintf("rnd%d", s)))
	}
	for _, g := range docs {
		var b bytes.Buffer
		if err := g.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		f.inline = append(f.inline, b.Bytes())
	}
	return f
}

// batch draws a request of n DFGs, named and inline, and the body a serial
// loop of per-DFG Predict calls answers it with.
func (f *labelsFixture) batch(t *testing.T, rng *rand.Rand, n int) (req, want []byte) {
	t.Helper()
	nk := rng.Intn(n + 1)
	var names []string
	var docs []json.RawMessage
	var graphs []*dfg.Graph
	for i := 0; i < nk; i++ {
		name := f.named[rng.Intn(len(f.named))]
		names = append(names, name)
		graphs = append(graphs, kernels.MustByName(name))
	}
	for i := nk; i < n; i++ {
		doc := f.inline[rng.Intn(len(f.inline))]
		g, err := dfg.ReadJSON(bytes.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, doc)
		graphs = append(graphs, g)
	}
	req, err := json.Marshal(LabelsRequest{Arch: "cgra-4x4", Kernels: names, DFGs: docs})
	if err != nil {
		t.Fatal(err)
	}
	resp := LabelsResponse{Arch: "cgra-4x4"}
	for _, g := range graphs {
		lbl, err := f.model.Predict(attr.Generate(g))
		if err != nil {
			t.Fatal(err)
		}
		row := LabelsRow{Name: g.Name, Nodes: g.NumNodes(), Edges: g.NumEdges(),
			Order: lbl.Order, Spatial: lbl.Spatial, Temporal: lbl.Temporal}
		//lisa:vet-ok maprange collected entries are sorted right below
		for p, v := range lbl.SameLevel {
			row.SameLevel = append(row.SameLevel, SameLevelEntry{A: p.A, B: p.B, Value: v})
		}
		sort.Slice(row.SameLevel, func(a, b int) bool {
			if row.SameLevel[a].A != row.SameLevel[b].A {
				return row.SameLevel[a].A < row.SameLevel[b].A
			}
			return row.SameLevel[a].B < row.SameLevel[b].B
		})
		resp.Labels = append(resp.Labels, row)
	}
	want, err = json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return req, want
}

// withGOMAXPROCS runs fn at the given GOMAXPROCS, which sets the handler's
// fan-out width.
func withGOMAXPROCS(n int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	fn()
}

// TestLabelsParallelMatchesSerialPredict: mixed batches of 1..64 named,
// inline unrolled and inline random DFGs answer exactly the bytes of a
// serial per-DFG Predict loop, whether the handler fans out or not.
func TestLabelsParallelMatchesSerialPredict(t *testing.T) {
	f := newLabelsFixture(t)
	for _, procs := range []int{1, 4} {
		withGOMAXPROCS(procs, func() {
			rng := rand.New(rand.NewSource(int64(procs)))
			for _, n := range []int{1, 2, 3, 8, 17, 40, maxLabelBatch} {
				req, want := f.batch(t, rng, n)
				w := postLabels(t, f.h, string(req))
				if w.Code != http.StatusOK {
					t.Fatalf("GOMAXPROCS=%d n=%d: status %d: %s", procs, n, w.Code, w.Body)
				}
				if !bytes.Equal(w.Body.Bytes(), want) {
					t.Fatalf("GOMAXPROCS=%d n=%d: body differs from the serial per-DFG Predict reference", procs, n)
				}
			}
		})
	}
}

// TestLabelsConcurrentRequests: 16 concurrent requests, each fanned out,
// all answer their serial reference (run it under -race).
func TestLabelsConcurrentRequests(t *testing.T) {
	f := newLabelsFixture(t)
	rng := rand.New(rand.NewSource(16))
	const clients = 16
	reqs, wants := make([][]byte, clients), make([][]byte, clients)
	for i := range reqs {
		reqs[i], wants[i] = f.batch(t, rng, 1+rng.Intn(24))
	}
	withGOMAXPROCS(4, func() {
		var wg sync.WaitGroup
		errs := make([]string, clients)
		for i := 0; i < clients; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				req := httptest.NewRequest(http.MethodPost, "/v1/labels", bytes.NewReader(reqs[i]))
				w := httptest.NewRecorder()
				f.h.ServeHTTP(w, req)
				if w.Code != http.StatusOK || !bytes.Equal(w.Body.Bytes(), wants[i]) {
					errs[i] = fmt.Sprintf("request %d: status %d, body matches reference: %v", i, w.Code, bytes.Equal(w.Body.Bytes(), wants[i]))
				}
			}(i)
		}
		wg.Wait()
		for _, e := range errs {
			if e != "" {
				t.Error(e)
			}
		}
	})
}

// TestLabelsLowestBadIndexWins: with several bad DFGs in one request, the
// 400 carries the message of the lowest bad index in request order
// (kernels, then inline DFGs), however the tasks were scheduled.
func TestLabelsLowestBadIndexWins(t *testing.T) {
	f := newLabelsFixture(t)
	good := string(f.inline[0])
	_, kernelErr := kernels.ByName("nope1")
	_, garbageErr := dfg.ReadJSON(strings.NewReader(`{"nodes":"garbage"}`))
	cases := []struct{ body, want string }{
		{`{"arch":"cgra-4x4","kernels":["gemm","nope1","nope2"],"dfgs":[{"nodes":"garbage"}]}`, kernelErr.Error()},
		{`{"arch":"cgra-4x4","kernels":["gemm"],"dfgs":[` + good + `,{"nodes":"garbage"},{"nodes":[]},{}]}`,
			fmt.Errorf("dfgs[1]: %w", garbageErr).Error()},
	}
	withGOMAXPROCS(4, func() {
		for _, c := range cases {
			for rep := 0; rep < 20; rep++ {
				w := postLabels(t, f.h, c.body)
				var body errorBody
				if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
					t.Fatal(err)
				}
				if w.Code != http.StatusBadRequest || body.Error != c.want {
					t.Fatalf("status %d, error %q; want 400 %q", w.Code, body.Error, c.want)
				}
			}
		}
	})
}

// TestLabelsBadDFGBeatsMissingModel: a bad request answers 400 before the
// model is resolved — not 503, and without starting an on-demand training.
func TestLabelsBadDFGBeatsMissingModel(t *testing.T) {
	for _, onDemand := range []bool{false, true} {
		reg := registry.New(registry.Config{TrainOnDemand: onDemand, TrainCfg: gnn.TrainConfig{Epochs: 1}})
		s := New(Config{}, reg)
		for _, body := range []string{
			`{"arch":"cgra-4x4","kernels":["gemm","nope"]}`,
			`{"arch":"cgra-4x4","kernels":["gemm"],"dfgs":[{"nodes":"garbage"}]}`,
		} {
			if w := postLabels(t, s.Handler(), body); w.Code != http.StatusBadRequest {
				t.Errorf("train on demand %v: status %d, want 400: %s", onDemand, w.Code, w.Body)
			}
		}
		if runs := reg.Counters().TrainRuns; runs != 0 {
			t.Errorf("train on demand %v: a bad request started %d training runs", onDemand, runs)
		}
		s.Close()
	}
}

// TestLabelsTaskPanicReachesFence: a DFG whose inference panics inside a
// fanned-out task becomes the handler fence's 500, not a crashed process.
func TestLabelsTaskPanicReachesFence(t *testing.T) {
	var panics atomic.Int32
	reg := registry.New(registry.Config{TrainOnDemand: false})
	broken := gnn.NewModel(rand.New(rand.NewSource(1)), "cgra-4x4")
	broken.Order.W0 = tensor.New(1, 1) // shape bug: the first matmul panics
	reg.Put(broken)
	s := New(Config{OnPanic: func(any, []byte) { panics.Add(1) }}, reg)
	defer s.Close()
	for _, procs := range []int{1, 4} {
		withGOMAXPROCS(procs, func() {
			w := postLabels(t, s.Handler(), `{"arch":"cgra-4x4","kernels":["gemm","atax","mvt"]}`)
			if w.Code != http.StatusInternalServerError || !strings.Contains(w.Body.String(), "matmul shape") {
				t.Fatalf("GOMAXPROCS=%d: status %d: %s; want the fence's 500", procs, w.Code, w.Body)
			}
		})
	}
	if got := panics.Load(); got != 2 {
		t.Fatalf("OnPanic saw %d panics, want 2", got)
	}
}

// labelsBodiesSHA256 is the SHA-256 over the statuses, Content-Types and
// bodies of TestLabelsOnDemandBodiesPinned's requests. Every predicted bit,
// every float's formatting and every byte of the response layout feeds it.
const labelsBodiesSHA256 = "3b570732353cde8668383be78c01403b7dcb12bfe732acdc96542ca6248236a0"

// TestLabelsOnDemandBodiesPinned sends a fixed mix of /v1/labels requests
// (named kernels, unrolled kernels and §V random DFGs sent inline, a name
// that needs escaping, and one bad request) to a server holding the model
// lisa-serve trains on demand for cgra-4x4 with its default flags, and pins
// the response bytes. Like the model digest in the registry package, the
// bytes are only pinned on amd64: other architectures may fuse
// multiply-adds and round differently.
func TestLabelsOnDemandBodiesPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("label bytes are pinned on amd64, not %s", runtime.GOARCH)
	}
	reg := registry.New(registry.Config{
		TrainGen: traingen.Config{
			NumDFGs:    36,
			Iterations: 2,
			DFG:        dfg.DefaultRandomConfig(),
			MapOpts:    mapper.Options{MaxMoves: 700},
			Filter:     labels.DefaultFilterConfig(),
		},
		TrainCfg:      gnn.TrainConfig{Epochs: 60, LR: 0.003, WeightDecay: 0.0005},
		Seed:          1,
		TrainOnDemand: true,
	})
	s := New(Config{}, reg)
	defer s.Close()

	inline := func(g *dfg.Graph) json.RawMessage {
		var b bytes.Buffer
		if err := g.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	reqs := []LabelsRequest{{Arch: "cgra-4x4", Kernels: kernels.Names()}}
	for _, k := range kernels.Names() {
		g := kernels.MustByName(k)
		reqs = append(reqs, LabelsRequest{Arch: "cgra-4x4", Kernels: []string{k},
			DFGs: []json.RawMessage{inline(dfg.Unroll(g, 2)), inline(dfg.Unroll(g, 4))}})
	}
	var random []json.RawMessage
	for seed := int64(0); seed < 48; seed++ {
		name := fmt.Sprintf("rnd%d", seed)
		if seed == 0 {
			name = "rnd<&>\u2028"
		}
		random = append(random, inline(dfg.Random(rand.New(rand.NewSource(seed)), dfg.DefaultRandomConfig(), name)))
	}
	for i := 0; i < len(random); i += 16 {
		reqs = append(reqs, LabelsRequest{Arch: "cgra-4x4", Kernels: []string{"gemm"}, DFGs: random[i : i+16]})
	}
	reqs = append(reqs, LabelsRequest{Arch: "cgra-4x4", Kernels: []string{"gemm", "nope"}})

	sum := sha256.New()
	for i, r := range reqs {
		body, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		w := postLabels(t, s.Handler(), string(body))
		want := http.StatusOK
		if i == len(reqs)-1 {
			want = http.StatusBadRequest
		}
		if w.Code != want {
			t.Fatalf("request %d: status %d, want %d: %s", i, w.Code, want, w.Body)
		}
		fmt.Fprintf(sum, "%d %s %d\n", w.Code, w.Header().Get("Content-Type"), w.Body.Len())
		sum.Write(w.Body.Bytes())
	}
	if got := fmt.Sprintf("%x", sum.Sum(nil)); got != labelsBodiesSHA256 {
		t.Fatalf("/v1/labels bodies SHA-256 = %s, want %s", got, labelsBodiesSHA256)
	}
}

// TestLabelsBodySpliceMatchesMarshal: rows encoded one by one and spliced
// equal json.Marshal of the whole response, including the HTML escaping of
// names, U+2028 and invalid UTF-8, for batches of one and several rows.
func TestLabelsBodySpliceMatchesMarshal(t *testing.T) {
	rows := []LabelsRow{
		{Name: "a<b>&c", Nodes: 2, Edges: 1, Order: []float64{0, 1.5}, Spatial: []float64{2}, Temporal: []float64{1}},
		{Name: "line\u2028sep\u2029", Order: []float64{}, Spatial: []float64{}, Temporal: []float64{}},
		{Name: "bad\xff\xfeutf8", Nodes: 3, Edges: 2, Order: []float64{1e-9, 3, 1e21}, Spatial: []float64{0, 4},
			Temporal: []float64{1, 7}, SameLevel: []SameLevelEntry{{A: 0, B: 2, Value: 0.25}}},
		{Name: `quote"back\slash`, Order: nil, Spatial: nil, Temporal: nil},
	}
	for _, archName := range []string{"cgra-4x4", "odd<&>\u2028arch"} {
		for n := 1; n <= len(rows); n++ {
			items := make([]labelsItem, n)
			for i := range items {
				b, err := json.Marshal(rows[i])
				if err != nil {
					t.Fatal(err)
				}
				items[i].row = b
			}
			want, err := json.Marshal(LabelsResponse{Arch: archName, Labels: rows[:n]})
			if err != nil {
				t.Fatal(err)
			}
			if got := labelsBody(archName, items); !bytes.Equal(got, want) {
				t.Fatalf("arch %q, %d rows: spliced body\n%s\nwant\n%s", archName, n, got, want)
			}
		}
	}
}

// TestLabelsEncodeFailureCounts500: a model that predicts a non-finite
// label answers the 500 "encoding response: …" text/plain body, and
// /metrics counts that 500, not a 200. The registry refuses a model with a
// non-finite weight (TestNonFiniteModelNeverServed), so the model here is
// finite and overflows: huge temporal weights carry every edge's label to
// +Inf.
func TestLabelsEncodeFailureCounts500(t *testing.T) {
	s := overflowingServer(t)
	for _, procs := range []int{1, 4} {
		withGOMAXPROCS(procs, func() {
			w := postLabels(t, s.Handler(), `{"arch":"cgra-4x4","kernels":["gemm","atax","mvt"]}`)
			if w.Code != http.StatusInternalServerError ||
				w.Body.String() != "encoding response: json: unsupported value: +Inf\n" ||
				w.Header().Get("Content-Type") != "text/plain; charset=utf-8" {
				t.Fatalf("GOMAXPROCS=%d: status %d, Content-Type %q, body %q", procs, w.Code, w.Header().Get("Content-Type"), w.Body)
			}
		})
	}
	var snap MetricsSnapshot
	mw := httptest.NewRecorder()
	s.Handler().ServeHTTP(mw, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if err := json.Unmarshal(mw.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	// The /metrics request itself is counted only once its answer is sent.
	if snap.Requests["/v1/labels"] != 2 || snap.Status["500"] != 2 || snap.Status["200"] != 0 {
		t.Fatalf("/metrics counts requests %v, statuses %v; want two /v1/labels 500s and no 200", snap.Requests, snap.Status)
	}
}

// overflowingServer serves a finite cgra-4x4 model whose temporal weights
// are all math.MaxFloat64, so every edge's temporal label overflows to +Inf.
func overflowingServer(t *testing.T) *Server {
	t.Helper()
	m := gnn.NewModel(rand.New(rand.NewSource(1)), "cgra-4x4")
	for _, w := range [][]float64{m.Temporal.W1.Data, m.Temporal.W2.Data} {
		for i := range w {
			w[i] = math.MaxFloat64
		}
	}
	reg := registry.New(registry.Config{TrainOnDemand: false})
	if !reg.Put(m) {
		t.Fatal("Put refused a finite model")
	}
	s := New(Config{}, reg)
	t.Cleanup(s.Close)
	return s
}

// TestInfiniteLabelsNeverServedOnMap: a finite model whose labels overflow
// to +Inf is not annealed on. /v1/map with engine lisa degrades to sa and
// marks the body uncacheable, so the next identical request is no L1 hit.
func TestInfiniteLabelsNeverServedOnMap(t *testing.T) {
	h := overflowingServer(t).Handler()
	for i := 0; i < 2; i++ {
		w := postMap(t, h, `{"kernel":"gemm","arch":"cgra-4x4","engine":"lisa","seed":3}`)
		if w.Code != http.StatusOK || w.Header().Get(noStoreHeader) != "1" || w.Header().Get(cacheHeader) != "miss" {
			t.Fatalf("request %d: status %d, %s %q, %s %q; want a degraded 200 miss marked no-store: %s", i, w.Code,
				noStoreHeader, w.Header().Get(noStoreHeader), cacheHeader, w.Header().Get(cacheHeader), w.Body)
		}
		var resp MapResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		const want = "lisa\u2192sa: labels unavailable: registry: cgra-4x4 model: labels: temporal[0] = +Inf is not finite"
		if resp.EngineUsed != "sa" || len(resp.Result.Degraded) != 1 || resp.Result.Degraded[0] != want {
			t.Fatalf("request %d: engineUsed %q, degraded %q; want sa and %q", i, resp.EngineUsed, resp.Result.Degraded, want)
		}
	}
}

// TestNonFiniteModelNeverServed: a model with one NaN weight, as a diverged
// training run could leave behind, never reaches the registry. Put refuses
// it; with on-demand training off, /v1/labels then answers 503, and /v1/map
// with engine lisa degrades to sa and marks the body uncacheable, instead
// of annealing on NaN labels.
func TestNonFiniteModelNeverServed(t *testing.T) {
	m := gnn.NewModel(rand.New(rand.NewSource(1)), "cgra-4x4")
	m.Temporal.W2.Data[0] = math.NaN()
	reg := registry.New(registry.Config{TrainOnDemand: false})
	if reg.Put(m) {
		t.Fatal("Put accepted a model with a NaN weight")
	}
	s := New(Config{}, reg)
	defer s.Close()
	if w := postLabels(t, s.Handler(), `{"arch":"cgra-4x4","kernels":["gemm"]}`); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("/v1/labels: status %d, want 503: %s", w.Code, w.Body)
	}
	w := postMap(t, s.Handler(), `{"kernel":"gemm","arch":"cgra-4x4","engine":"lisa","seed":3}`)
	if w.Code != http.StatusOK || w.Header().Get(noStoreHeader) != "1" {
		t.Fatalf("/v1/map: status %d, %s %q; want a degraded 200 marked no-store: %s",
			w.Code, noStoreHeader, w.Header().Get(noStoreHeader), w.Body)
	}
	var resp MapResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.EngineUsed != "sa" || len(resp.Result.Degraded) == 0 ||
		!strings.HasPrefix(resp.Result.Degraded[0], "lisa\u2192sa: labels unavailable") {
		t.Fatalf("engineUsed %q, degraded %q; want lisa\u2192sa: labels unavailable…", resp.EngineUsed, resp.Result.Degraded)
	}
}
