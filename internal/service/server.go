// Package service is the mapping-as-a-service subsystem behind the
// lisa-serve daemon. LISA's split — offline per-accelerator training,
// cheap compile-time inference (§IV–V) — is exactly the shape of a
// long-lived server: models are loaded (or trained) once per architecture
// and every mapping request is a low-latency inference + annealing run.
//
// The server composes six pieces:
//
//   - a model registry (internal/registry) resolving one GNN model per
//     architecture behind a per-architecture once;
//   - a two-tier content-addressed result cache: SHA-256 of the
//     normalized request → the exact response bytes. L1 is in-memory
//     (cache.go), LRU-bounded by entries and bytes, with singleflight
//     deduplication so N concurrent identical requests run the annealer
//     once; L2 (optional) is the crash-tolerant persistent store in
//     internal/store, so results outlive both L1 eviction and restarts;
//   - an admission-controlled worker pool (internal/parallel.Pool): a
//     bounded queue that turns overload into HTTP 429 instead of latency;
//   - optional multi-node routing (internal/cluster): each cache key has
//     one owning peer on a consistent-hash ring, non-owners proxy to it
//     (singleflight held across the hop), and an unreachable owner
//     degrades to local compute — so a fleet computes each distinct
//     mapping once but never refuses work because a peer died;
//   - a batch endpoint (batch.go): many DFG×arch items per request,
//     fanned out like /v1/labels, with per-item outcomes;
//   - request metrics (metrics.go) served as JSON on /metrics.
//
// Because mapping results are pure functions of (DFG, arch, engine,
// options, seed) for the SA-family engines, a cache hit, a fresh run, and
// a re-run after restart all return byte-identical bodies.
//
// The daemon is crash-proofed for long-lived serving: every request passes
// one front door (serve) that fences panics (500 + a panics counter, never
// a dead process) and counts its answer in /metrics, mapping requests go
// through engine.Run's graceful-degradation ladder
// (degraded responses are labeled and never cached), inline DFGs are
// structurally validated and size-capped before any analysis touches
// them, and POST /v1/reload is the explicit recovery path for cached
// training failures. internal/fault sites (cache.get, pool.submit) let
// the chaos suite drive all of this deterministically.
package service

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"runtime/debug"
	"sort"
	"sync/atomic"
	"time"

	"github.com/lisa-go/lisa/internal/arch"
	"github.com/lisa-go/lisa/internal/attr"
	"github.com/lisa-go/lisa/internal/cluster"
	"github.com/lisa-go/lisa/internal/dfg"
	"github.com/lisa-go/lisa/internal/engine"
	"github.com/lisa-go/lisa/internal/fault"
	"github.com/lisa-go/lisa/internal/gnn"
	"github.com/lisa-go/lisa/internal/ilp"
	"github.com/lisa-go/lisa/internal/kernels"
	"github.com/lisa-go/lisa/internal/mapper"
	"github.com/lisa-go/lisa/internal/parallel"
	"github.com/lisa-go/lisa/internal/registry"
	"github.com/lisa-go/lisa/internal/store"
)

// Response headers. Routing and cache dispositions live in headers, never
// in bodies: the body of a 200 is byte-identical fleet-wide for a given
// request, no matter which node answered or how.
const (
	cacheHeader   = "X-Lisa-Cache"    // hit | store | miss | coalesced
	clusterHeader = "X-Lisa-Cluster"  // local | proxied | fallback-local
	noStoreHeader = "X-Lisa-No-Store" // "1": degraded/deadline result; no tier may cache it
)

var (
	errCanceled = errors.New("service: request canceled while waiting")
	errBusy     = errors.New("service: mapping queue full")
)

// maxBodyBytes bounds every request body (DFG uploads, label and map
// batches).
const maxBodyBytes = 4 << 20

// Config tunes the server. Zero values fall back to DefaultConfig.
type Config struct {
	// Workers bounds concurrent mapper invocations (<= 0: one per CPU).
	Workers int
	// QueueDepth bounds mapping jobs waiting behind the workers; a full
	// queue turns into HTTP 429. Zero means the default; negative means no
	// queue at all (a request is refused unless a worker is free).
	QueueDepth int
	// CacheEntries bounds the in-memory (L1) result cache by entry count;
	// CacheBytes bounds it by total body bytes (0: the default; negative:
	// no byte bound).
	CacheEntries int
	CacheBytes   int64
	// Store, when set, is the persistent (L2) result store: L1 misses are
	// looked up there before computing, and every cacheable result is
	// written through, so results survive restarts and L1 eviction.
	Store *store.Store
	// Cluster, when set, routes each cache key to its owning peer on a
	// consistent-hash ring; this node proxies keys it does not own and
	// falls back to local compute when the owner cannot serve.
	Cluster *cluster.Cluster
	// MaxBatchItems caps the items of one /v1/map/batch request (0: the
	// default).
	MaxBatchItems int
	// DefaultDeadline applies when a request names none; MaxDeadline caps
	// what a request may ask for. Deadlines feed mapper.Options.TimeLimit.
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration
	// MaxDFGNodes / MaxDFGEdges cap inline DFG uploads, including after
	// unrolling (0: the default caps; negative: uncapped). Built-in kernels
	// are trusted and exempt.
	MaxDFGNodes int
	MaxDFGEdges int
	// MaxRestarts caps the portfolio width a request may ask for
	// (mapper.Options.Restarts): each restart is one full annealing chain,
	// so the cap bounds per-request compute the same way the unroll cap
	// (kernels.MemoUnroll) bounds graph size (0: default; negative:
	// uncapped up to mapper.MaxRestarts).
	MaxRestarts int
	// ModelsDir, when set, is rescanned by POST /v1/reload for model files
	// that appeared after startup.
	ModelsDir string
	// OnPanic, when set, observes every recovered panic (handler or pool
	// task) with its stack; the daemon points it at the crash log.
	OnPanic func(recovered any, stack []byte)
	// MapOpts is the server-side default annealing budget; requests may
	// override MaxMoves and Seed.
	MapOpts mapper.Options
	// ILPOpts is the budget for engine=ilp requests.
	ILPOpts ilp.Options
}

// DefaultConfig returns the serving defaults.
func DefaultConfig() Config {
	return Config{
		QueueDepth:      64,
		CacheEntries:    4096,
		CacheBytes:      256 << 20,
		MaxBatchItems:   64,
		DefaultDeadline: 30 * time.Second,
		MaxDeadline:     2 * time.Minute,
		MaxDFGNodes:     512,
		MaxDFGEdges:     2048,
		MaxRestarts:     8,
		MapOpts:         mapper.DefaultOptions(),
		ILPOpts:         ilp.DefaultOptions(),
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.QueueDepth == 0 {
		c.QueueDepth = d.QueueDepth
	} else if c.QueueDepth < 0 {
		c.QueueDepth = -1 // parallel.NewPool clamps to an unbuffered queue
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = d.CacheEntries
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = d.CacheBytes
	} else if c.CacheBytes < 0 {
		c.CacheBytes = 0 // NewCache treats 0 as unbounded
	}
	if c.MaxBatchItems <= 0 {
		c.MaxBatchItems = d.MaxBatchItems
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = d.DefaultDeadline
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = d.MaxDeadline
	}
	if c.MaxDFGNodes == 0 {
		c.MaxDFGNodes = d.MaxDFGNodes
	} else if c.MaxDFGNodes < 0 {
		c.MaxDFGNodes = 0
	}
	if c.MaxDFGEdges == 0 {
		c.MaxDFGEdges = d.MaxDFGEdges
	} else if c.MaxDFGEdges < 0 {
		c.MaxDFGEdges = 0
	}
	if c.MaxRestarts == 0 {
		c.MaxRestarts = d.MaxRestarts
	} else if c.MaxRestarts < 0 {
		c.MaxRestarts = 0
	}
	if c.MapOpts == (mapper.Options{}) {
		c.MapOpts = d.MapOpts
	}
	if c.ILPOpts == (ilp.Options{}) {
		c.ILPOpts = d.ILPOpts
	}
	return c
}

// Server serves mapping requests. Create with New, mount Handler on an
// http.Server, and Close on shutdown to drain in-flight mappings.
type Server struct {
	cfg     Config
	reg     *registry.Registry
	cache   *Cache
	flight  *flightGroup
	pool    *parallel.Pool
	metrics *Metrics

	draining atomic.Bool // set by Close; the front door then refuses work
}

// New builds a server over a model registry (which may have been pre-loaded
// from a models directory).
func New(cfg Config, reg *registry.Registry) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		reg:     reg,
		cache:   NewCache(cfg.CacheEntries, cfg.CacheBytes),
		flight:  newFlightGroup(),
		pool:    parallel.NewPool(cfg.Workers, cfg.QueueDepth),
		metrics: NewMetrics(time.Now()),
	}
	// Last-resort fence: a task that panics past its own recovery must not
	// kill the worker. (Mapping tasks also recover for themselves so their
	// singleflight leader is never left waiting.)
	s.pool.OnPanic(s.panicked)
	if cfg.Cluster != nil {
		// Warm model shipping: before the registry spends a local training
		// run on a model-less arch, ask the ring for one (model.go).
		reg.SetFetch(s.fetchModel)
	}
	return s
}

// panicked is the central sink for every recovered panic: count it and
// hand the stack to the configured crash log.
func (s *Server) panicked(recovered any, stack []byte) {
	s.metrics.ctr[ctrPanics].Add(1)
	if s.cfg.OnPanic != nil {
		s.cfg.OnPanic(recovered, stack)
	}
}

// Close stops admitting new mapping jobs and waits for accepted ones to
// finish — the graceful-drain half of SIGTERM handling (the HTTP listener
// itself is drained by http.Server.Shutdown).
func (s *Server) Close() {
	s.draining.Store(true)
	s.pool.Close()
}

// route names one endpoint Handler mounts; routeNames holds the name
// /metrics counts it under.
type route int

const (
	routeMap route = iota
	routeBatch
	routeLabels
	routeArchs
	routeModel
	routeKernels
	routeReload
	routeHealthz
	routeReadyz
	routeMetrics
	numRoutes
)

var routeNames = [numRoutes]string{
	"/v1/map", "/v1/map/batch", "/v1/labels", "/v1/archs", "/v1/model",
	"/v1/kernels", "/v1/reload", "/healthz", "/readyz", "/metrics",
}

// endpoint is one route Handler mounts. handle gets the request body only
// on a work route; the others read none.
type endpoint struct {
	pattern string // the ServeMux pattern
	route   route
	method  string // the one method the route takes; "" takes any
	work    bool   // refused while draining, gauged in flight, body read whole
	handle  func(w http.ResponseWriter, r *http.Request, body []byte)
}

// Handler returns the route mux, every route mounted through serve.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, e := range []endpoint{
		{"/v1/map", routeMap, http.MethodPost, true, s.handleMap},
		{"/v1/map/batch", routeBatch, http.MethodPost, true, s.handleMapBatch},
		{"/v1/labels", routeLabels, http.MethodPost, true, s.handleLabels},
		{"/v1/archs", routeArchs, http.MethodGet, false, s.handleArchs},
		{"/v1/model/", routeModel, http.MethodGet, false, s.handleModel},
		{"/v1/kernels", routeKernels, http.MethodGet, false, s.handleKernels},
		{"/v1/reload", routeReload, http.MethodPost, false, s.handleReload},
		{"/healthz", routeHealthz, "", false, s.handleHealthz},
		{"/readyz", routeReadyz, http.MethodGet, false, s.handleReadyz},
		{"/metrics", routeMetrics, "", false, s.handleMetrics},
	} {
		mux.Handle(e.pattern, s.serve(e))
	}
	return mux
}

// serve is the front door every request passes through. It answers a
// method the route does not take 405, and fences panics: a panicking
// handler answers 500 and ticks the panics counter, and the daemon keeps
// serving. A work route is refused 503 while draining, gauged in flight,
// and handed its body read whole under the 4 MiB cap. Every answer is
// counted once in /metrics, by route and by the status actually sent.
func (s *Server) serve(e endpoint) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		defer func() {
			if rec := recover(); rec != nil {
				if err, ok := rec.(error); ok && errors.Is(err, http.ErrAbortHandler) {
					panic(rec) // the deliberate connection-abort idiom; not a crash
				}
				s.panicked(rec, debug.Stack())
				// Best effort: if the handler already started the response the
				// status line is gone, but a fresh panic happens before any write.
				writeJSON(sw, http.StatusInternalServerError,
					errorBody{Error: fmt.Sprintf("internal error: %v", rec)})
			}
			// net/http sends 200 for a handler that writes nothing.
			s.metrics.request(e.route, cmp.Or(sw.status, http.StatusOK))
		}()
		if e.method != "" && r.Method != e.method {
			fail(sw, http.StatusMethodNotAllowed, "use %s", e.method)
			return
		}
		var body []byte
		if e.work {
			if s.draining.Load() {
				fail(sw, http.StatusServiceUnavailable, "server is draining")
				return
			}
			s.metrics.ctr[ctrInflight].Add(1)
			defer s.metrics.ctr[ctrInflight].Add(-1)
			// MaxBytesReader gets the unwrapped writer: only net/http's own can
			// close the connection after an over-cap body.
			var err error
			if body, err = io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes)); err != nil {
				fail(sw, http.StatusBadRequest, "bad request body: %v", err)
				return
			}
		}
		e.handle(sw, r, body)
	})
}

// statusWriter records the status a handler sends, for the front door's
// count.
type statusWriter struct {
	http.ResponseWriter
	status int // 0 until the handler sends one
}

// WriteHeader records code only once net/http has accepted it: a code
// outside 100–999 panics there, and the fence then sends a 500.
func (w *statusWriter) WriteHeader(code int) {
	w.ResponseWriter.WriteHeader(code)
	if w.status == 0 {
		w.status = code
	}
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

// MapRequest is the POST /v1/map body. Exactly one of Kernel and DFG names
// the graph; Engine defaults to "lisa", Seed to 1, Unroll to 1, MaxMoves to
// the server default, DeadlineMs to the server default.
type MapRequest struct {
	Kernel   string          `json:"kernel,omitempty"`
	DFG      json.RawMessage `json:"dfg,omitempty"`
	Arch     string          `json:"arch"`
	Engine   string          `json:"engine,omitempty"`
	Seed     *int64          `json:"seed,omitempty"`
	Unroll   int             `json:"unroll,omitempty"`
	MaxMoves int             `json:"maxMoves,omitempty"`
	// Restarts asks the SA-family engines to race a K-chain restart
	// portfolio (capped by Config.MaxRestarts; 0 and 1 both mean the plain
	// single-chain annealer). Part of the cache key: different widths are
	// different results.
	Restarts   int   `json:"restarts,omitempty"`
	DeadlineMs int64 `json:"deadlineMs,omitempty"`
	// Stats additionally computes the utilization report for OK mappings.
	Stats bool `json:"stats,omitempty"`
}

// MapResponse is the POST /v1/map body on success. Every field is
// deterministic for the SA-family engines, so identical requests always
// receive byte-identical bodies; the X-Lisa-Cache header ("hit", "miss",
// "coalesced") is the only part that varies.
type MapResponse struct {
	Key    string `json:"key"`
	Arch   string `json:"arch"`
	Engine string `json:"engine"`
	Seed   int64  `json:"seed"`
	Kernel string `json:"kernel,omitempty"`
	Nodes  int    `json:"nodes"`
	Edges  int    `json:"edges"`

	// EngineUsed names the engine that actually produced the result when
	// the degradation ladder substituted one (absent on healthy responses,
	// which therefore stay byte-identical to earlier releases). The rungs
	// taken are in Result.Degraded.
	EngineUsed string `json:"engineUsed,omitempty"`

	Result      mapper.Result       `json:"result"`
	Utilization *mapper.Utilization `json:"utilization,omitempty"`
}

// errorBody is every non-200 JSON payload. Defect carries the
// machine-readable dfg.Defect class when the rejection was a structural
// DFG problem, so clients can tell a cyclic graph from an oversized one.
type errorBody struct {
	Error  string `json:"error"`
	Defect string `json:"defect,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	// Marshal before touching the ResponseWriter: once the status line is
	// out there is no way to signal an encoding failure to the client.
	body, err := json.Marshal(v)
	if err != nil {
		http.Error(w, "encoding response: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body) // a write error means the client hung up; nothing to do
}

func fail(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

// failErr writes an error response, classifying DFG defects for clients.
func failErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errBody(err))
}

// errBody is err's error body, with the dfg.Defect class of a DFG defect.
func errBody(err error) errorBody {
	body := errorBody{Error: err.Error()}
	if de, ok := dfg.AsDefect(err); ok {
		body.Defect = string(de.Kind)
	}
	return body
}

// mapJob is one fully validated mapping request: everything execute needs,
// plus the exact request bytes so a proxy hop replays the request verbatim.
// Exactly one of kernel and g is set; graph turns either into the DFG a
// mapping run works on.
type mapJob struct {
	req     MapRequest
	raw     []byte
	ar      arch.Arch
	eng     engine.Name
	kernel  *kernels.Kernel // a named kernel, built only by graph
	g       *dfg.Graph      // an inline DFG, decoded (and unrolled) by prepare
	mapOpts mapper.Options
	key     string
}

// graph returns the DFG a mapping run works on: the decoded inline DFG, or
// a fresh build of the named kernel. It is the only place a named kernel's
// graph is built, and only runMapping calls it, so a request answered from
// L1 or the store never builds one and no graph is shared between requests.
func (j *mapJob) graph() *dfg.Graph {
	if j.kernel != nil {
		return j.kernel.Build(j.req.Unroll)
	}
	return j.g
}

// mapOutcome is how one mapping request was answered: the flight result
// (body/status/error plus routing dispositions) and the cache disposition
// for the X-Lisa-Cache header.
type mapOutcome struct {
	flightResult
	cacheState string // hit | store | miss | coalesced; "" on errors
}

// prepare validates raw as a MapRequest and resolves everything derived
// from it — architecture, engine, DFG, normalized options, cache key.
// Every error is a client error (HTTP 400). A named kernel's key comes from
// its memoized canonical bytes, so prepare builds no graph for it.
func (s *Server) prepare(raw []byte) (*mapJob, error) {
	req, err := decodeRequest(raw, splitMapRequest)
	if err != nil {
		return nil, fmt.Errorf("bad request body: %v", err)
	}
	job := &mapJob{req: req, raw: raw}

	ar, ok := arch.ByName(job.req.Arch)
	if !ok {
		return nil, fmt.Errorf("unknown arch %q (have %v)", job.req.Arch, arch.Names())
	}
	job.ar = ar
	job.eng = engine.Name("lisa")
	if job.req.Engine != "" {
		job.eng, err = engine.Parse(job.req.Engine)
		if err != nil {
			return nil, err
		}
	}
	canon, err := s.requestDFG(job)
	if err != nil {
		return nil, err
	}

	seed := int64(1)
	if job.req.Seed != nil {
		seed = *job.req.Seed
	}
	deadline := s.cfg.DefaultDeadline
	if job.req.DeadlineMs > 0 {
		deadline = time.Duration(job.req.DeadlineMs) * time.Millisecond
	}
	if deadline > s.cfg.MaxDeadline {
		deadline = s.cfg.MaxDeadline
	}
	if job.req.Restarts < 0 {
		return nil, fmt.Errorf("restarts %d is negative", job.req.Restarts)
	}
	if s.cfg.MaxRestarts > 0 && job.req.Restarts > s.cfg.MaxRestarts {
		return nil, fmt.Errorf("restarts %d exceeds the limit of %d", job.req.Restarts, s.cfg.MaxRestarts)
	}
	job.mapOpts = s.cfg.MapOpts
	job.mapOpts.Seed = seed
	if job.req.MaxMoves > 0 {
		job.mapOpts.MaxMoves = job.req.MaxMoves
	}
	if job.req.Restarts > 0 {
		job.mapOpts.Restarts = job.req.Restarts
	}
	job.mapOpts.TimeLimit = deadline

	job.key = cacheKey(canon, job.req.Kernel, ar.Name(), job.eng, job.mapOpts, deadline.Milliseconds(), job.req.Stats)
	return job, nil
}

// execute answers one prepared job through the full serving stack: L1
// cache, persistent store, cluster routing (unless the request already
// arrived forwarded), singleflight, worker pool. cancel aborts a follower's
// wait; the leader always completes.
func (s *Server) execute(job *mapJob, cancel <-chan struct{}, forwarded bool) mapOutcome {
	key := job.key
	if err := fault.Inject(fault.CacheGet, fault.Token(key)); err != nil {
		// An injected lookup failure is a forced miss: the request falls
		// through to a fresh (deduplicated) mapping run, trading latency
		// for availability exactly like a real cache outage would. The
		// injection itself is visible in /metrics under faults.
	} else if body, ok := s.cache.Get(key); ok {
		s.metrics.ctr[ctrCacheHits].Add(1)
		return mapOutcome{flightResult: flightResult{body: body, status: http.StatusOK}, cacheState: "hit"}
	} else if st := s.cfg.Store; st != nil {
		body, err := st.Get(key)
		switch {
		case err == nil:
			s.metrics.ctr[ctrStoreHits].Add(1)
			s.cache.Add(key, body) // promote to L1; next hit skips the disk
			return mapOutcome{flightResult: flightResult{body: body, status: http.StatusOK}, cacheState: "store"}
		case errors.Is(err, store.ErrNotFound):
			s.metrics.ctr[ctrStoreMisses].Add(1)
		default:
			// Read failures (injected, torn, bit-rot) are forced misses: the
			// store self-heals corrupt entries and the fresh compute rewrites
			// them. Availability over persistence, never the reverse.
			s.metrics.ctr[ctrStoreReadErrors].Add(1)
		}
	}

	// Cluster routing: keys this node does not own are proxied to their
	// owner so the fleet computes each distinct mapping exactly once. A
	// forwarded request is never re-forwarded (the owner may disagree about
	// ownership mid-reconfiguration; one hop bounds the disagreement).
	owner := ""
	if cl := s.cfg.Cluster; cl != nil && !forwarded {
		if o := cl.Owner(key); o != cl.Self() {
			owner = o
		}
	}
	fn := func() flightResult { return s.runMapping(job) }
	if owner != "" {
		fn = func() flightResult { return s.proxyToOwner(job, owner) }
	}
	res, shared := s.flight.do(key, cancel, fn)
	out := mapOutcome{flightResult: res}
	if res.err == nil {
		if shared {
			s.metrics.ctr[ctrCoalesced].Add(1)
			out.cacheState = "coalesced"
		} else {
			s.metrics.ctr[ctrCacheMisses].Add(1)
			out.cacheState = "miss"
		}
	}
	return out
}

// proxyToOwner is the singleflight leader body on a non-owner node: replay
// the request bytes against the key's owner and relay its answer. If the
// owner cannot serve — down, draining, overloaded, or an injected peer.rpc
// fault — the request degrades to local compute instead of failing: the
// serving twin of the engine degradation ladder. The fallback produces the
// same deterministic bytes the owner would have (only the X-Lisa-Cluster
// header and the fallbacks counter betray the detour).
func (s *Server) proxyToOwner(job *mapJob, owner string) flightResult {
	resp, err := s.cfg.Cluster.Forward(owner, "/v1/map", fault.Token(job.key), job.raw)
	if err == nil {
		switch {
		case resp.Status == http.StatusOK:
			s.metrics.ctr[ctrProxied].Add(1)
			noStore := resp.Header.Get(noStoreHeader) != ""
			if !noStore {
				// Adopt the owner's result into both local tiers: the next
				// request for this key is served here without a hop.
				s.cacheBody(job.key, resp.Body)
			}
			return flightResult{body: resp.Body, status: http.StatusOK, via: "proxied", noStore: noStore}
		case resp.Status < http.StatusInternalServerError &&
			resp.Status != http.StatusTooManyRequests &&
			resp.Status != http.StatusServiceUnavailable:
			// A deterministic 4xx: recomputing locally would refuse the
			// request identically, so relay the owner's verdict.
			s.metrics.ctr[ctrProxied].Add(1)
			return flightResult{body: resp.Body, status: resp.Status, via: "proxied", noStore: true}
		}
		// 429 / 503 / 5xx: the owner is alive but cannot serve this now.
	}
	s.metrics.ctr[ctrFallbacks].Add(1)
	res := s.runMapping(job)
	res.via = "fallback-local"
	return res
}

// cacheBody writes one cacheable response body through both cache tiers. A
// store write failure costs persistence, not the request: the result is
// already in L1 and on its way to the client.
func (s *Server) cacheBody(key string, body []byte) {
	s.cache.Add(key, body)
	if st := s.cfg.Store; st != nil {
		if err := st.Put(key, body); err != nil {
			s.metrics.ctr[ctrStoreWriteErrors].Add(1)
		}
	}
}

func (s *Server) handleMap(w http.ResponseWriter, r *http.Request, body []byte) {
	job, err := s.prepare(body)
	if err != nil {
		failErr(w, http.StatusBadRequest, err)
		return
	}
	out := s.execute(job, r.Context().Done(), r.Header.Get(cluster.ForwardedHeader) != "")
	if out.err != nil {
		status, eb := s.mapFailure(out)
		writeJSON(w, status, eb)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if out.cacheState != "" {
		w.Header().Set(cacheHeader, out.cacheState)
	}
	if s.cfg.Cluster != nil {
		via := out.via
		if via == "" {
			via = "local"
		}
		w.Header().Set(clusterHeader, via)
	}
	if out.noStore && out.status == http.StatusOK {
		// Tells a forwarding peer (and any cache in between) that this body
		// is a degraded/deadline-curtailed result no tier may retain.
		w.Header().Set(noStoreHeader, "1")
	}
	if out.status != http.StatusOK {
		w.WriteHeader(out.status)
	}
	_, _ = w.Write(out.body) // client disconnect; any cacheable result is already cached
}

// mapFailure is the status and error body a mapping outcome other than a
// 200 answers with, on /v1/map and as a batch item alike: a fixed text for
// a canceled wait or a full queue, the error's text for a failed run, and
// the owning peer's error for an answer relayed from it.
func (s *Server) mapFailure(out mapOutcome) (int, errorBody) {
	switch {
	case errors.Is(out.err, errCanceled):
		// The client hung up while waiting on another request's run.
		return http.StatusRequestTimeout, errorBody{Error: "canceled while waiting"}
	case errors.Is(out.err, errBusy):
		s.metrics.ctr[ctrRejected].Add(1)
		return http.StatusTooManyRequests, errorBody{Error: "mapping queue full, retry later"}
	case out.err != nil:
		return out.status, errorBody{Error: out.err.Error()}
	}
	// A relayed non-200 from the owning peer: its body is an errorBody.
	var eb errorBody
	if json.Unmarshal(out.body, &eb) != nil || eb.Error == "" {
		eb = errorBody{Error: string(bytes.TrimSpace(out.body))}
	}
	return out.status, eb
}

// runMapping is the singleflight leader body: admit into the worker pool,
// run the engine behind the degradation ladder, serialize, cache. It always
// runs to completion once admitted so followers and the cache see the
// result even if the leading client disconnects.
func (s *Server) runMapping(job *mapJob) flightResult {
	key, ar, g, eng, mapOpts := job.key, job.ar, job.graph(), job.eng, job.mapOpts

	if err := fault.Inject(fault.PoolSubmit, fault.Token(key)); err != nil {
		// An injected admission failure is backpressure, same as a full
		// queue: the client sees 429 and retries.
		return flightResult{status: http.StatusTooManyRequests, err: errBusy}
	}

	type outcome struct {
		rr  engine.RunResult
		err error
	}
	done := make(chan outcome, 1)
	admitted := s.pool.TrySubmit(func() {
		// This fence must be here, not (only) in the pool: the pool's
		// worker-level recovery would keep the worker alive but never send
		// on done, leaving the singleflight leader blocked forever.
		defer func() {
			if rec := recover(); rec != nil {
				s.panicked(rec, debug.Stack())
				done <- outcome{err: fmt.Errorf("mapping task panicked: %v", rec)}
			}
		}()
		start := time.Now()
		rr, err := engine.Run(ar, g, engine.Request{
			Engine: eng,
			Labels: s.reg,
			Opts:   engine.Options{Map: mapOpts, ILP: s.cfg.ILPOpts},
		})
		s.metrics.Mapped(eng, err == nil && rr.OK, err == nil && rr.DegradedRun(), time.Since(start))
		done <- outcome{rr, err}
	})
	if !admitted {
		return flightResult{status: http.StatusTooManyRequests, err: errBusy}
	}
	out := <-done
	if out.err != nil {
		return flightResult{status: http.StatusInternalServerError, err: out.err}
	}
	res := out.rr.Result
	if res.OK {
		if err := mapper.Verify(ar, g, &res); err != nil {
			return flightResult{status: http.StatusInternalServerError, err: fmt.Errorf("mapping failed verification: %w", err)}
		}
	}
	// Wall-clock duration is the one nondeterministic Result field; zero it
	// so identical requests serialize to identical bytes. Latency lives in
	// /metrics instead.
	res.Duration = 0

	resp := MapResponse{
		Key:    key,
		Arch:   ar.Name(),
		Engine: string(eng),
		Seed:   mapOpts.Seed,
		Kernel: job.req.Kernel,
		Nodes:  g.NumNodes(),
		Edges:  g.NumEdges(),
		Result: res,
	}
	if out.rr.Engine != eng {
		resp.EngineUsed = string(out.rr.Engine)
	}
	if job.req.Stats && res.OK {
		u, err := mapper.Utilize(ar, g, &res)
		if err != nil {
			return flightResult{status: http.StatusInternalServerError, err: err}
		}
		resp.Utilization = &u
	}
	body, err := json.Marshal(&resp)
	if err != nil {
		return flightResult{status: http.StatusInternalServerError, err: err}
	}
	body = append(body, '\n')
	// Degraded and deadline-curtailed results are served but never cached —
	// in either tier: the caches must only ever hold first-choice
	// deterministic outcomes, or a transient fault's fallback would outlive
	// the fault itself.
	if len(res.Degraded) == 0 && !res.DeadlineExceeded {
		s.cacheBody(key, body)
		return flightResult{body: body, status: http.StatusOK}
	}
	return flightResult{body: body, status: http.StatusOK, noStore: true}
}

// requestDFG resolves the request's DFG, a named kernel or an inline DFG
// document, with optional unrolling, and returns its canonical bytes.
//
// A named kernel is trusted: it is exempt from the size caps (but not the
// unroll cap), its bytes come from the kernels memo, and its graph is left
// for mapJob.graph to build. An inline DFG is untrusted input: it is
// structurally validated (ReadJSON) and size-capped, both as uploaded and
// after unrolling — mapper state grows superlinearly with graph size, so an
// unbounded upload is a memory bomb — and the decoded graph stays on the
// job.
func (s *Server) requestDFG(job *mapJob) ([]byte, error) {
	req := &job.req
	if (req.Kernel == "") == (len(req.DFG) == 0) {
		return nil, errors.New("exactly one of \"kernel\" and \"dfg\" must be set")
	}
	if req.Kernel != "" {
		k, err := kernels.Lookup(req.Kernel)
		if err != nil {
			return nil, err
		}
		if err := checkUnroll(req.Unroll); err != nil {
			return nil, err
		}
		job.kernel = k
		return k.Canonical(req.Unroll), nil
	}
	g, err := dfg.ReadJSON(bytes.NewReader(req.DFG))
	if err != nil {
		return nil, err
	}
	if err := g.CheckSize(s.cfg.MaxDFGNodes, s.cfg.MaxDFGEdges); err != nil {
		return nil, err
	}
	if err := checkUnroll(req.Unroll); err != nil {
		return nil, err
	}
	if req.Unroll > 1 {
		g = dfg.Unroll(g, req.Unroll)
		if err := g.CheckSize(s.cfg.MaxDFGNodes, s.cfg.MaxDFGEdges); err != nil {
			return nil, err
		}
	}
	job.g = g
	return g.AppendCanonical(nil), nil
}

// checkUnroll caps a request's unroll factor at kernels.MemoUnroll, so a
// named kernel's canonical bytes always come from the kernels memo.
func checkUnroll(factor int) error {
	if factor > kernels.MemoUnroll {
		return &dfg.DefectError{Kind: dfg.DefectTooLarge,
			Msg: fmt.Sprintf("unroll factor %d exceeds the limit of %d", factor, kernels.MemoUnroll)}
	}
	return nil
}

// maxLabelBatch caps the number of DFGs per /v1/labels request. Each DFG
// is its own inference pass, bounded by MaxDFGNodes like one mapping
// request; the cap bounds the work and the response size of one request.
const maxLabelBatch = 64

// LabelsRequest is the POST /v1/labels body: one architecture and a batch
// of DFGs, named kernels and/or inline documents, each predicted by one
// fused GNN inference pass.
type LabelsRequest struct {
	Arch    string            `json:"arch"`
	Kernels []string          `json:"kernels,omitempty"`
	DFGs    []json.RawMessage `json:"dfgs,omitempty"`
}

// SameLevelEntry is one label-2 prediction, sorted by (A, B) so the
// response bytes are deterministic.
type SameLevelEntry struct {
	A     int     `json:"a"`
	B     int     `json:"b"`
	Value float64 `json:"value"`
}

// LabelsRow carries the four predicted label sets for one DFG of the batch,
// in request order (kernels first, then inline DFGs).
type LabelsRow struct {
	Name      string           `json:"name"`
	Nodes     int              `json:"nodes"`
	Edges     int              `json:"edges"`
	Order     []float64        `json:"order"`
	Spatial   []float64        `json:"spatial"`
	Temporal  []float64        `json:"temporal"`
	SameLevel []SameLevelEntry `json:"sameLevel,omitempty"`
}

// LabelsResponse is the POST /v1/labels body on success.
type LabelsResponse struct {
	Arch   string      `json:"arch"`
	Labels []LabelsRow `json:"labels"`
}

// labelsItem carries one DFG of a /v1/labels request through its pipeline.
type labelsItem struct {
	g      *dfg.Graph
	row    []byte // the row's JSON encoding
	err    error  // a bad DFG (400) or a model that cannot predict it (500)
	encErr error  // a row JSON cannot encode, such as a NaN label (500)
}

// handleLabels serves raw GNN label predictions: the compile-time inference
// half of the pipeline without the annealer, for clients that run their own
// mapper or inspect what the model would steer it with.
//
// The request split leaves each inline DFG of the body as raw bytes for its
// task.
// Each DFG runs its own pipeline — resolve or decode and size-check it,
// generate its attributes, predict it with one fused Predict, encode its
// row — and the DFGs fan out across cores (parallel.ForEach at GOMAXPROCS
// width). The handler splices the encoded rows in request order, so the
// bytes equal json.Marshal of the whole response and a serial per-DFG loop.
// Errors keep the serial precedence: the lowest-index bad kernel name or
// DFG answers 400, checked before the model is resolved so a bad request
// never starts training or gets a 503; then a missing model answers 503,
// scale skew 500, and a row that cannot be encoded 500. A panicking task is
// re-raised here, inside the front door's panic fence.
func (s *Server) handleLabels(w http.ResponseWriter, _ *http.Request, body []byte) {
	req, err := decodeRequest(body, splitLabelsRequest)
	if err != nil {
		fail(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	ar, ok := arch.ByName(req.Arch)
	if !ok {
		fail(w, http.StatusBadRequest, "unknown arch %q (have %v)", req.Arch, arch.Names())
		return
	}
	n := len(req.Kernels) + len(req.DFGs)
	if n == 0 {
		fail(w, http.StatusBadRequest, "at least one of \"kernels\" and \"dfgs\" must be non-empty")
		return
	}
	if n > maxLabelBatch {
		fail(w, http.StatusBadRequest, "batch of %d DFGs exceeds the limit of %d", n, maxLabelBatch)
		return
	}
	workers := parallel.Workers(0)
	items := parallel.MapOrdered(workers, n, func(i int) labelsItem {
		g, err := s.labelsGraph(&req, i)
		return labelsItem{g: g, err: err}
	})
	for _, it := range items {
		if it.err != nil {
			failErr(w, http.StatusBadRequest, it.err)
			return
		}
	}
	// Resolve the model only now, so "no model for this target" is
	// backpressure (503, retry after training/reload), not an internal error.
	m, err := s.reg.ModelFor(ar)
	if err != nil {
		fail(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	parallel.ForEach(workers, n, func(i int) {
		it := &items[i]
		var row LabelsRow
		if row, it.err = labelsRow(m, it.g); it.err == nil {
			it.row, it.encErr = json.Marshal(row)
		}
	})
	for _, it := range items {
		if it.err != nil {
			// The only failure is scale-vector version skew — a broken model
			// artifact, squarely a server-side error.
			fail(w, http.StatusInternalServerError, "%v", it.err)
			return
		}
	}
	for _, it := range items {
		if it.encErr != nil { // a NaN or ±Inf label, e.g. from a diverged model
			http.Error(w, "encoding response: "+it.encErr.Error(), http.StatusInternalServerError)
			return
		}
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(labelsBody(ar.Name(), items)) // a write error means the client hung up; nothing to do
}

// labelsBody splices the items' encoded rows, in request order, into the
// bytes json.Marshal gives a LabelsResponse holding the rows: json.Marshal
// encoded each row inside its task, so what is left here is a copy.
func labelsBody(archName string, items []labelsItem) []byte {
	name, _ := json.Marshal(archName) // a string always encodes
	size := len(`{"arch":,"labels":[]}`) + len(name) + len(items)
	for _, it := range items {
		size += len(it.row)
	}
	body := append(make([]byte, 0, size), `{"arch":`...)
	body = append(append(body, name...), `,"labels":[`...)
	for i, it := range items {
		if i > 0 {
			body = append(body, ',')
		}
		body = append(body, it.row...)
	}
	return append(body, "]}"...)
}

// labelsGraph resolves the i-th DFG of a labels request: kernels first, then
// inline DFGs, which are untrusted and so structurally validated and
// size-capped like /v1/map uploads.
func (s *Server) labelsGraph(req *LabelsRequest, i int) (*dfg.Graph, error) {
	if i < len(req.Kernels) {
		return kernels.ByName(req.Kernels[i])
	}
	i -= len(req.Kernels)
	g, err := dfg.ReadJSON(bytes.NewReader(req.DFGs[i]))
	if err == nil {
		err = g.CheckSize(s.cfg.MaxDFGNodes, s.cfg.MaxDFGEdges)
	}
	if err != nil {
		return nil, fmt.Errorf("dfgs[%d]: %w", i, err)
	}
	return g, nil
}

// labelsRow predicts g's labels with m and lays them out as a response row.
// The same-level entries follow attr's pair order, which is ascending
// (A, B).
func labelsRow(m *gnn.Model, g *dfg.Graph) (LabelsRow, error) {
	set := attr.Generate(g)
	lbl, err := m.Predict(set)
	if err != nil {
		return LabelsRow{}, err
	}
	row := LabelsRow{
		Name:     g.Name,
		Nodes:    g.NumNodes(),
		Edges:    g.NumEdges(),
		Order:    lbl.Order,
		Spatial:  lbl.Spatial,
		Temporal: lbl.Temporal,
	}
	if len(set.DummyPairs) > 0 {
		row.SameLevel = make([]SameLevelEntry, len(set.DummyPairs))
		for i, p := range set.DummyPairs {
			row.SameLevel[i] = SameLevelEntry{A: p.A, B: p.B, Value: lbl.SameLevel[p]}
		}
	}
	return row, nil
}

// ArchInfo is one /v1/archs row.
type ArchInfo struct {
	Name       string `json:"name"`
	PEs        int    `json:"pes"`
	MaxII      int    `json:"maxII"`
	ModelReady bool   `json:"modelReady"`
	// ModelProvenance says which ladder rung resolved the model — "loaded"
	// (from disk), "trained" (locally), or "shipped" (fetched from a ring
	// peer); empty while no model is resolved. ModelSource is the peer URL a
	// shipped model came from.
	ModelProvenance string `json:"modelProvenance,omitempty"`
	ModelSource     string `json:"modelSource,omitempty"`
	// ModelError is the cached model-resolution failure for this target, if
	// any (a training failure or a permanently rejected fetch payload);
	// POST /v1/reload clears it for one retry.
	ModelError string `json:"modelError,omitempty"`
	// FetchError is the last failed model-fetch attempt. Unlike ModelError
	// it does not imply the slot is stuck: transport-class fetch failures
	// retry on the next request, and a locally trained model keeps the
	// trace to explain why the ladder fell through to training.
	FetchError string `json:"fetchError,omitempty"`
}

func (s *Server) handleArchs(w http.ResponseWriter, _ *http.Request, _ []byte) {
	var out []ArchInfo
	for _, name := range arch.Names() {
		ar, _ := arch.ByName(name)
		slot := s.reg.InfoFor(name)
		info := ArchInfo{
			Name:            name,
			PEs:             ar.NumPEs(),
			MaxII:           ar.MaxII(),
			ModelReady:      slot.Ready,
			ModelProvenance: string(slot.Provenance),
			ModelSource:     slot.Source,
		}
		if slot.Err != nil {
			info.ModelError = slot.Err.Error()
		}
		if slot.FetchErr != nil {
			info.FetchError = slot.FetchErr.Error()
		}
		out = append(out, info)
	}
	writeJSON(w, http.StatusOK, out)
}

// KernelInfo is one /v1/kernels row.
type KernelInfo struct {
	Name  string `json:"name"`
	Nodes int    `json:"nodes"`
	Edges int    `json:"edges"`
}

func (s *Server) handleKernels(w http.ResponseWriter, _ *http.Request, _ []byte) {
	var out []KernelInfo
	for _, name := range kernels.Names() {
		g := kernels.MustByName(name)
		out = append(out, KernelInfo{Name: name, Nodes: g.NumNodes(), Edges: g.NumEdges()})
	}
	writeJSON(w, http.StatusOK, out)
}

// ReloadResponse is the POST /v1/reload body.
type ReloadResponse struct {
	// Retried lists targets whose cached training failure was cleared; the
	// next request for each may spend one fresh training attempt.
	Retried []string `json:"retried,omitempty"`
	// Loaded lists targets whose model file was newly loaded from the
	// models directory.
	Loaded []string `json:"loaded,omitempty"`
	// Errors lists model files that failed to load (already-registered
	// collisions are expected on a rescan and not reported).
	Errors []string `json:"errors,omitempty"`
}

// handleReload is the explicit recovery path: clear cached training
// failures so the next request may retry, and rescan the models directory
// (when configured) for files that appeared after startup. It is
// deliberately the only way to spend a second training attempt on a failed
// target — ordinary requests never retrain.
func (s *Server) handleReload(w http.ResponseWriter, _ *http.Request, _ []byte) {
	var resp ReloadResponse
	for _, name := range arch.Names() {
		if s.reg.Err(name) != nil && s.reg.Retry(name) {
			resp.Retried = append(resp.Retried, name)
		}
	}
	if dir := s.cfg.ModelsDir; dir != "" {
		files, err := filepath.Glob(filepath.Join(dir, "*.json"))
		if err != nil {
			fail(w, http.StatusInternalServerError, "%v", err)
			return
		}
		sort.Strings(files)
		for _, path := range files {
			name, err := s.reg.LoadFile(path)
			switch {
			case err == nil:
				resp.Loaded = append(resp.Loaded, name)
			case errors.Is(err, registry.ErrAlreadyLoaded):
				// Expected on a rescan; nothing to report.
			default:
				resp.Errors = append(resp.Errors, err.Error())
			}
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleHealthz is pure liveness: the process is up and the handler chain
// works. It answers 200 even while draining — a draining daemon is alive,
// it just refuses new work, which is /readyz's distinction to make. Peers
// probe this endpoint, so "alive but not ready" must not read as "dead".
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request, _ []byte) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "alive"})
}

// StoreReadiness is the /readyz store block.
type StoreReadiness struct {
	Writable   bool   `json:"writable"`
	Error      string `json:"error,omitempty"`
	Entries    int    `json:"entries"`
	Generation uint64 `json:"generation"`
}

// ReadyResponse is the /readyz body: whether this node should receive
// traffic, and why not when it shouldn't.
type ReadyResponse struct {
	Ready    bool            `json:"ready"`
	Draining bool            `json:"draining,omitempty"`
	Models   []string        `json:"models"`
	Store    *StoreReadiness `json:"store,omitempty"`
	Peers    []PeerSnapshot  `json:"peers,omitempty"`
}

// handleReadyz is readiness: draining or an unwritable store means this
// node should be taken out of rotation (503). Unreachable peers are
// reported but do not flip readiness — the cluster fallback path keeps a
// lone survivor serving, so peer state is observability, not a gate.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request, _ []byte) {
	resp := ReadyResponse{Ready: true, Models: s.reg.Ready()}
	if s.draining.Load() {
		resp.Draining = true
		resp.Ready = false
	}
	if st := s.cfg.Store; st != nil {
		sr := &StoreReadiness{Entries: st.Len(), Generation: st.Generation()}
		if err := st.CheckWritable(); err != nil {
			sr.Error = err.Error()
			resp.Ready = false
		} else {
			sr.Writable = true
		}
		resp.Store = sr
	}
	if cl := s.cfg.Cluster; cl != nil {
		for _, p := range cl.Peers() {
			cl.Probe(p) // refresh; backoff-gated, so a down peer costs no dial
		}
		resp.Peers = peerSnapshots(cl)
	}
	status := http.StatusOK
	if !resp.Ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, resp)
}

// peerSnapshots converts the cluster's health rows for JSON responses.
func peerSnapshots(cl *cluster.Cluster) []PeerSnapshot {
	rows := cl.Status()
	out := make([]PeerSnapshot, len(rows))
	for i, row := range rows {
		out[i] = PeerSnapshot{URL: row.URL, Self: row.Self, Healthy: row.Healthy, Failures: row.Failures}
	}
	return out
}

// handleMetrics serves the counters as JSON. The request reading them is
// not among them: the front door counts it once its answer is sent.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request, _ []byte) {
	m := s.metrics
	snap := m.Snapshot(time.Now(), s.cache.Len(), s.cache.Bytes())
	if st := s.cfg.Store; st != nil {
		snap.Store = &StoreSnapshot{
			Hits:        m.ctr[ctrStoreHits].Load(),
			Misses:      m.ctr[ctrStoreMisses].Load(),
			ReadErrors:  m.ctr[ctrStoreReadErrors].Load(),
			WriteErrors: m.ctr[ctrStoreWriteErrors].Load(),
			Entries:     st.Len(),
			Bytes:       st.Bytes(),
			Dropped:     st.Dropped(),
			Generation:  st.Generation(),
		}
	}
	if cl := s.cfg.Cluster; cl != nil {
		snap.Cluster = &ClusterSnapshot{
			Self:      cl.Self(),
			Proxied:   m.ctr[ctrProxied].Load(),
			Fallbacks: m.ctr[ctrFallbacks].Load(),
			Peers:     peerSnapshots(cl),
		}
	}
	counts := s.reg.ProvenanceCounts()
	ctr := s.reg.Counters()
	snap.Models = &ModelsSnapshot{
		Loaded:      counts[registry.ProvLoaded],
		Trained:     counts[registry.ProvTrained],
		Shipped:     counts[registry.ProvShipped],
		TrainRuns:   ctr.TrainRuns,
		Fetches:     ctr.Fetches,
		FetchErrors: ctr.FetchErrors,
	}
	if fault.Enabled() {
		snap.Faults = fault.Counts()
	}
	writeJSON(w, http.StatusOK, snap)
}
