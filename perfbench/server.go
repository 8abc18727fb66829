package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/lisa-go/lisa/internal/arch"
	"github.com/lisa-go/lisa/internal/dfg"
	"github.com/lisa-go/lisa/internal/gnn"
	"github.com/lisa-go/lisa/internal/labels"
	"github.com/lisa-go/lisa/internal/mapper"
	"github.com/lisa-go/lisa/internal/registry"
	"github.com/lisa-go/lisa/internal/service"
	"github.com/lisa-go/lisa/internal/store"
	"github.com/lisa-go/lisa/internal/traingen"
)

// registryConfig is lisa-serve's on-demand training budget (its flag
// defaults): 36 DFGs x 60 epochs, training seed 1.
func registryConfig() registry.Config {
	return registry.Config{
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
	}
}

// serverConfig is lisa-serve's default configuration with the benchmark's
// small L1, over the given store.
func serverConfig(st *store.Store) service.Config {
	return service.Config{CacheEntries: hotCacheEntries, Store: st}
}

// modelDigest is the SHA-256 of a model's gnn.Save bytes.
func modelDigest(m *gnn.Model) ([32]byte, error) {
	var b bytes.Buffer
	if err := m.Save(&b); err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(b.Bytes()), nil
}

// recorder is a minimal http.ResponseWriter that keeps one response's
// status, headers and body; reset readies it for the next request without
// allocating.
type recorder struct {
	hdr    http.Header
	status int
	body   bytes.Buffer
}

func newRecorder() *recorder { return &recorder{hdr: make(http.Header)} }

func (r *recorder) Header() http.Header { return r.hdr }

func (r *recorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
}

func (r *recorder) Write(p []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.body.Write(p)
}

func (r *recorder) reset() {
	clear(r.hdr)
	r.status = 0
	r.body.Reset()
}

// newPost builds a POST request for an in-process handler.
func newPost(path string, body []byte) *http.Request {
	req, err := http.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	if err != nil {
		panic(err) // a constant path always parses
	}
	return req
}

// drive sends requests [from, to) through h from clients closed-loop
// clients: each takes the next index, builds its request, times ServeHTTP
// alone and hands the response to done outside the timed window. Clients
// stop taking requests at stop. It returns how many requests were sent.
func drive(h http.Handler, clients, from, to int, stop time.Time,
	build func(i int) *http.Request, done func(i int, rec *recorder, d time.Duration)) int {
	var next, sent atomic.Int64
	next.Store(int64(from))
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := newRecorder()
			for {
				i := int(next.Add(1) - 1)
				if i >= to || time.Now().After(stop) {
					return
				}
				req := build(i)
				rec.reset()
				t0 := time.Now()
				h.ServeHTTP(rec, req)
				d := time.Since(t0)
				sent.Add(1)
				done(i, rec, d)
			}
		}()
	}
	wg.Wait()
	return int(sent.Load())
}

// setupResult is one set-up: the trained registry, the store and the
// server the measured phase uses, plus what the set-up itself produced.
type setupResult struct {
	reg      *registry.Registry
	model    *gnn.Model
	digest   [32]byte
	st       *store.Store
	srv      *service.Server
	elapsed  time.Duration
	warm     [][]byte // serve-hot: the warm-phase body of each working-set key
	warmMaps int64    // mapper runs of the warm phase
	failed   int      // warm-phase responses that were not a fresh 200
}

// setUp trains the model through the registry, as lisa-serve does on the
// first request for an arch, then opens the serving side.
func setUp(ar arch.Arch, cfg registry.Config, dir string, hot []mapReq, stop time.Time) (*setupResult, error) {
	t0 := time.Now()
	reg := registry.New(cfg)
	m, err := reg.ModelFor(ar)
	if err != nil {
		return nil, fmt.Errorf("training: %w", err)
	}
	res, err := serve(reg, m, dir, hot, stop)
	if err != nil {
		return nil, err
	}
	res.elapsed = time.Since(t0)
	res.digest, err = modelDigest(m)
	return res, err
}

// serve opens a fresh store in dir and a server over it and reg. For
// serve-hot it first computes the working set by sending every key once
// through another server, so the returned one starts with an empty L1 and
// the measured requests hit and miss identically on every run.
func serve(reg *registry.Registry, m *gnn.Model, dir string, hot []mapReq, stop time.Time) (*setupResult, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	res := &setupResult{reg: reg, model: m, st: st}
	if len(hot) > 0 {
		warmSrv := service.New(serverConfig(st), reg)
		res.warm, res.failed = warmUp(warmSrv.Handler(), hot, stop)
		res.warmMaps = metricsOf(warmSrv.Handler()).mapperRuns
		warmSrv.Close()
	}
	res.srv = service.New(serverConfig(st), reg)
	return res, nil
}

// warmUp compiles each working-set key once, from one client per CPU,
// and returns the bodies.
func warmUp(h http.Handler, set []mapReq, stop time.Time) ([][]byte, int) {
	bodies := make([][]byte, len(set))
	var failed atomic.Int64
	sent := drive(h, runtime.NumCPU(), 0, len(set), stop,
		func(i int) *http.Request { return newPost("/v1/map", set[i].body()) },
		func(i int, rec *recorder, _ time.Duration) {
			if rec.status != http.StatusOK || rec.hdr.Get("X-Lisa-Cache") != "miss" {
				failed.Add(1)
			}
			bodies[i] = bytes.Clone(rec.body.Bytes())
		})
	return bodies, int(failed.Load()) + len(set) - sent
}

// completed counts the requests a replay sent: those with a step time.
func completed(ends []time.Duration) int {
	n := 0
	for _, e := range ends {
		if e > 0 {
			n++
		}
	}
	return n
}
