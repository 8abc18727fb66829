package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/lisa-go/lisa/internal/dfg"
	"github.com/lisa-go/lisa/internal/engine"
	"github.com/lisa-go/lisa/internal/kernels"
	"github.com/lisa-go/lisa/internal/mapper"
)

// fmtCacheKey is the original cache key, built with fmt.Fprintf into a
// hash.Hash over the original fmt-based canonical DFG encoding. It is the
// oracle for cacheKey: every L1 entry, store file and peer addresses results
// by these bytes, so a plain (stats-free) request must key exactly as here.
func fmtCacheKey(g *dfg.Graph, kernel, archName string, eng engine.Name, opts mapper.Options, deadlineMS int64) string {
	h := sha256.New()
	fmt.Fprintf(h, "lisa-serve/v2\narch=%s\nengine=%s\ndeadlineMs=%d\n", archName, eng, deadlineMS)
	if kernel != "" {
		fmt.Fprintf(h, "kernel=%s\n", kernel)
	}
	o := opts.Normalized()
	fmt.Fprintf(h, "opts=seed:%d,maxMoves:%d,movesPerTemp:%d,initTemp:%g,cool:%g,alpha:%g,maxII:%d,restarts:%d\n",
		o.Seed, o.MaxMoves, o.MovesPerTemp, o.InitTemp, o.Cool, o.Alpha, o.MaxII, o.Restarts)
	fprintfCanonical(h, g)
	return hex.EncodeToString(h.Sum(nil))
}

// fprintfCanonical is the original fmt-based canonical DFG encoding.
func fprintfCanonical(w io.Writer, g *dfg.Graph) {
	fmt.Fprintf(w, "dfg/v1 n=%d e=%d\n", len(g.Nodes), len(g.Edges))
	for i, n := range g.Nodes {
		fmt.Fprintf(w, "n%d %s\n", i, n.Op)
	}
	for i, e := range g.Edges {
		fmt.Fprintf(w, "e%d %d>%d\n", i, e.From, e.To)
	}
}

// allKernels lists every name kernels.Lookup accepts.
func allKernels() []string {
	return append(kernels.Names(), kernels.ExtendedNames()...)
}

// keyOptionSet is one server configuration plus the option fields of a
// request made against it.
type keyOptionSet struct {
	name string
	cfg  Config
	req  string // extra request fields, each with a leading comma
}

func keyOptionSets() []keyOptionSet {
	odd := mapper.DefaultOptions()
	odd.InitTemp, odd.Cool, odd.Alpha, odd.MaxII = 12.5, 0.1+0.2, 1e-7, 3
	wild := mapper.DefaultOptions()
	wild.InitTemp, wild.Cool, wild.Alpha = 1e21, 0.875, math.Inf(1)
	return []keyOptionSet{
		{name: "defaults", cfg: Config{}, req: `,"seed":7`},
		{name: "odd-floats", cfg: Config{MapOpts: odd},
			req: `,"seed":-42,"maxMoves":333,"restarts":3,"deadlineMs":4321`},
		{name: "inf-alpha", cfg: Config{MapOpts: wild}, req: `,"restarts":1,"deadlineMs":999999999`},
	}
}

// The hit path keys a named kernel from memoized canonical bytes and an
// fmt-free header. For every kernel × unroll 1–8 × engine × named/inline
// request × option set, the key prepare computes must equal the original
// fmt key of the directly built graph — the bytes hashed did not change.
func TestCacheKeyMatchesFmtOracle(t *testing.T) {
	engines := []engine.Name{engine.SA, engine.LISA, engine.ILP}
	for _, set := range keyOptionSets() {
		s := testServer(t, set.cfg)
		for _, name := range allKernels() {
			base := kernels.MustByName(name)
			var inline bytes.Buffer
			if err := base.WriteJSON(&inline); err != nil {
				t.Fatal(err)
			}
			for unroll := 1; unroll <= kernels.MemoUnroll; unroll++ {
				g := base
				if unroll > 1 {
					g = dfg.Unroll(base, unroll)
				}
				for _, eng := range engines {
					for _, named := range []bool{true, false} {
						src, kernel := `"dfg":`+inline.String(), ""
						if named {
							src, kernel = `"kernel":"`+name+`"`, name
						}
						raw := fmt.Sprintf(`{%s,"arch":"cgra-4x4","engine":%q,"unroll":%d%s}`, src, eng, unroll, set.req)
						job, err := s.prepare([]byte(raw))
						if err != nil {
							t.Fatalf("%s: prepare(%s): %v", set.name, raw, err)
						}
						want := fmtCacheKey(g, kernel, "cgra-4x4", eng, job.mapOpts, job.mapOpts.TimeLimit.Milliseconds())
						if job.key != want {
							t.Fatalf("%s %s unroll=%d engine=%s named=%v: key %s, fmt oracle %s",
								set.name, name, unroll, eng, named, job.key, want)
						}
					}
				}
			}
		}
	}
}

// cacheKey formats every option the way fmt's %d and %g did, including the
// corners of the float and integer ranges.
func TestCacheKeyHeaderMatchesFmtOracle(t *testing.T) {
	g := kernels.MustByName("atax")
	canon := g.AppendCanonical(nil)
	floats := []float64{0.15, 40, 0.92, -0.0, math.Inf(1), math.Inf(-1), math.NaN(),
		1e21, 1e-7, 123456789, 5e-324, math.MaxFloat64, 1.0 / 3}
	ints := []int64{1, -1, 0, math.MaxInt64, math.MinInt64, 1234567}
	for i, f := range floats {
		for j, n := range ints {
			o := mapper.Options{Seed: n, MaxMoves: int(n), MovesPerTemp: j, InitTemp: f,
				Cool: floats[(i+1)%len(floats)], Alpha: floats[(i+2)%len(floats)], MaxII: i, Restarts: j}
			for _, kernel := range []string{"", "atax"} {
				got := cacheKey(canon, kernel, "cgra-8x8", engine.Greedy, o, n, false)
				if want := fmtCacheKey(g, kernel, "cgra-8x8", engine.Greedy, o, n); got != want {
					t.Fatalf("options %+v kernel %q: key %s, fmt oracle %s", o, kernel, got, want)
				}
			}
		}
	}
}

// Every memoized kernel shape fits cacheKey's stack buffer, whatever the
// header holds: a named-kernel key allocates only the returned string.
func TestCacheKeyAllocatesOnlyTheKey(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	o := mapper.Options{Seed: math.MinInt64, MaxMoves: math.MinInt, MovesPerTemp: math.MinInt,
		InitTemp: -math.SmallestNonzeroFloat64, Cool: -math.MaxFloat64, Alpha: 1.0 / 3,
		MaxII: math.MinInt, Restarts: mapper.MaxRestarts}
	for _, name := range allKernels() {
		k, err := kernels.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for factor := 1; factor <= kernels.MemoUnroll; factor++ {
			canon := k.Canonical(factor)
			allocs := testing.AllocsPerRun(20, func() {
				cacheKey(canon, name, "cgra-4x4-lessroute", engine.Partial, o, math.MinInt64, true)
			})
			if allocs != 1 {
				t.Fatalf("%s unroll %d (%d canonical bytes): cacheKey allocates %v times, want 1",
					name, factor, len(canon), allocs)
			}
		}
	}
}

// "stats": true adds utilization to the body, so it must key apart from the
// plain request in both orders, and for batch items as well.
func TestMapStatsKeyedSeparately(t *testing.T) {
	s := testServer(t, Config{})
	h := s.Handler()
	util := func(t *testing.T, body []byte) bool {
		t.Helper()
		var resp MapResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		if !resp.Result.OK {
			t.Fatalf("mapping failed: %s", body)
		}
		return resp.Utilization != nil
	}
	fresh := testServer(t, Config{}).Handler()
	for _, order := range [][2]string{
		{`{"kernel":"gemm","arch":"cgra-4x4","engine":"sa","seed":5}`,
			`{"kernel":"gemm","arch":"cgra-4x4","engine":"sa","seed":5,"stats":true}`},
		{`{"kernel":"atax","arch":"cgra-4x4","engine":"sa","seed":5,"stats":true}`,
			`{"kernel":"atax","arch":"cgra-4x4","engine":"sa","seed":5}`},
	} {
		for i, req := range order {
			stats := strings.Contains(req, "stats")
			w := postMap(t, h, req)
			if w.Code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", req, w.Code, w.Body)
			}
			if got := w.Header().Get(cacheHeader); i == 1 && got != "miss" {
				t.Errorf("%s after %s: X-Lisa-Cache=%q, want miss", req, order[0], got)
			}
			if util(t, w.Body.Bytes()) != stats {
				t.Errorf("%s: utilization present=%v, want %v", req, !stats, stats)
			}
			// A plain body is what a server that never saw a stats request
			// answers.
			if !stats && !bytes.Equal(w.Body.Bytes(), postMap(t, fresh, req).Body.Bytes()) {
				t.Errorf("%s: body differs from a fresh server's", req)
			}
		}
	}

	// A batch item asking for stats after the plain single request filled
	// the cache must not be served the plain body.
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/map/batch", strings.NewReader(
		`{"items":[{"kernel":"gemm","arch":"cgra-4x4","engine":"sa","seed":5,"stats":true},
		           {"kernel":"gemm","arch":"cgra-4x4","engine":"sa","seed":5}]}`)))
	var batch BatchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &batch); err != nil || batch.OK != 2 {
		t.Fatalf("batch: %v: %s", err, w.Body)
	}
	if !util(t, batch.Items[0].Response) || util(t, batch.Items[1].Response) {
		t.Fatal("batch items: stats item lacks utilization or plain item carries it")
	}
}

// The named-kernel path checks what it always checked, in the same order,
// with the same bodies, and an unroll factor of at most 1 is the kernel as
// built.
func TestMapNamedKernelErrorsUnchanged(t *testing.T) {
	s := testServer(t, Config{})
	h := s.Handler()
	_, engErr := engine.Parse("magic")
	cases := []struct{ what, req, body string }{
		{"unknown kernel", `{"kernel":"nope","arch":"cgra-4x4"}`,
			`{"error":"kernels: unknown kernel \"nope\" (have [gemm atax bicg mvt gesummv symm syrk syr2k trmm 2mm 3mm doitgen])"}`},
		{"unroll over the cap", `{"kernel":"gemm","arch":"cgra-4x4","unroll":9}`,
			`{"error":"unroll factor 9 exceeds the limit of 8","defect":"too-large"}`},
		{"kernel and dfg", `{"kernel":"gemm","dfg":{"name":"x"},"arch":"cgra-4x4"}`,
			`{"error":"exactly one of \"kernel\" and \"dfg\" must be set"}`},
		{"arch before everything", `{"kernel":"nope","arch":"tpu","engine":"magic","unroll":99}`,
			`{"error":"unknown arch \"tpu\" (have [cgra-4x4 cgra-8x8 cgra-3x3 cgra-4x4-lessroute cgra-4x4-lessmem systolic-5x5])"}`},
		{"engine before kernel", `{"kernel":"nope","arch":"cgra-4x4","engine":"magic"}`,
			fmt.Sprintf(`{"error":%q}`, engErr.Error())},
		{"exactly-one before unknown kernel", `{"kernel":"nope","dfg":{},"arch":"cgra-4x4"}`,
			`{"error":"exactly one of \"kernel\" and \"dfg\" must be set"}`},
		{"unknown kernel before the unroll cap", `{"kernel":"nope","arch":"cgra-4x4","unroll":99}`,
			`{"error":"kernels: unknown kernel \"nope\" (have [gemm atax bicg mvt gesummv symm syrk syr2k trmm 2mm 3mm doitgen])"}`},
		{"unroll cap before restarts", `{"kernel":"gemm","arch":"cgra-4x4","unroll":99,"restarts":99}`,
			`{"error":"unroll factor 99 exceeds the limit of 8","defect":"too-large"}`},
		{"restarts", `{"kernel":"gemm","arch":"cgra-4x4","unroll":8,"restarts":99}`,
			`{"error":"restarts 99 exceeds the limit of 8"}`},
	}
	for _, tc := range cases {
		w := postMap(t, h, tc.req)
		if w.Code != http.StatusBadRequest || w.Body.String() != tc.body {
			t.Errorf("%s: %d %s\nwant 400 %s", tc.what, w.Code, w.Body, tc.body)
		}
	}

	want := ""
	for _, unroll := range []string{"", `,"unroll":1`, `,"unroll":0`, `,"unroll":-3`} {
		job, err := s.prepare([]byte(`{"kernel":"mvt","arch":"cgra-4x4","engine":"sa"` + unroll + `}`))
		if err != nil {
			t.Fatal(err)
		}
		if want == "" {
			want = job.key
		} else if job.key != want {
			t.Errorf("unroll field %q keys apart from the kernel as built", unroll)
		}
	}
}

// maxHitAllocs bounds the allocations of one L1 hit through the handler,
// beyond what the test harness itself allocates. The count was 15 on Go
// 1.24.0/amd64 and is unmeasured on go.mod's Go 1.22; net/http's and io's
// allocations change between releases, so the bound keeps five in hand.
const maxHitAllocs = 20

// An L1 hit for a named kernel builds no graph and uses no fmt: it must
// stay within maxHitAllocs.
func TestMapHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	s := testServer(t, Config{})
	h := s.Handler()
	perRun := func(h http.Handler, body []byte) float64 {
		return testing.AllocsPerRun(200, func() {
			h.ServeHTTP(httptest.NewRecorder(),
				httptest.NewRequest(http.MethodPost, "/v1/map", bytes.NewReader(body)))
		})
	}
	for _, unroll := range []int{1, 2} {
		body := []byte(fmt.Sprintf(`{"kernel":"gemm","arch":"cgra-4x4","engine":"sa","seed":7,"unroll":%d}`, unroll))
		harness := perRun(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}), body)
		if w := postMap(t, h, string(body)); w.Code != http.StatusOK {
			t.Fatalf("warm-up: %d: %s", w.Code, w.Body)
		}
		allocs := perRun(h, body) - harness
		if w := postMap(t, h, string(body)); w.Header().Get(cacheHeader) != "hit" {
			t.Fatalf("unroll %d: measured requests were not L1 hits", unroll)
		}
		t.Logf("unroll %d: %.0f allocations per L1 hit (harness %.0f)", unroll, allocs, harness)
		if allocs > maxHitAllocs {
			t.Errorf("unroll %d: an L1 hit allocates %.0f times, want at most %d", unroll, allocs, maxHitAllocs)
		}
	}
}
