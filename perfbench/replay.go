package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"path/filepath"
	"time"

	"github.com/lisa-go/lisa/internal/arch"
	"github.com/lisa-go/lisa/internal/dfg"
	"github.com/lisa-go/lisa/internal/engine"
	"github.com/lisa-go/lisa/internal/kernels"
	"github.com/lisa-go/lisa/internal/labels"
	"github.com/lisa-go/lisa/internal/mapper"
	"github.com/lisa-go/lisa/internal/registry"
	"github.com/lisa-go/lisa/internal/service"
	"github.com/lisa-go/lisa/internal/store"
)

// The traced run replays the workload's request list from one client, as
// the untraced run sends it, performing each request's steps itself by
// calling the layers' public functions in the order lisa-serve runs them,
// each inside a span. Every request is replayed with the recorder on; every
// offEvery-th one is also replayed right before or after with the recorder
// off, each side with its own state, so that both see the machine in the
// same state and their difference is the tracing overhead.

// replayer is one replay of a workload's list. request renders request i
// as its client would send it; step performs it and returns the response
// body and any state after needs; after reports whether the replay
// reproduced the server's response. Only step is timed.
type replayer struct {
	request func(i int) []byte
	step    func(tr *tracer, i int, raw []byte) ([]byte, any)
	after   func(tr *tracer, i int, body []byte, aux any) bool
}

// replay runs requests [0, total) in order from one client, each through
// on (spans recorded for the measured slice [warm, total)) and every
// offEvery-th one also through off (none), alternating which goes first.
// It returns the spans and the measured slice's step times of each (0 where
// off did not run).
func (b *bench) replay(warm, total, offEvery int, on, off replayer) (spans []span, traced, plain []time.Duration, mismatches int) {
	trOn, trOff := &tracer{epoch: time.Now()}, &tracer{}
	traced, plain = make([]time.Duration, total), make([]time.Duration, total)
	run := func(r replayer, tr *tracer, i int, raw []byte) time.Duration {
		t0 := time.Now()
		body, aux := r.step(tr, i, raw)
		d := time.Since(t0)
		if !r.after(tr, i, body, aux) {
			mismatches++
		}
		return d
	}
	for i := 0; i < total && !time.Now().After(b.stop); i++ {
		trOn.on = i >= warm
		raw := on.request(i)
		switch {
		case i%offEvery != 0:
			traced[i] = run(on, trOn, i, raw)
		case i/offEvery%2 == 0:
			traced[i] = run(on, trOn, i, raw)
			plain[i] = run(off, trOff, i, raw)
		default:
			plain[i] = run(off, trOff, i, raw)
			traced[i] = run(on, trOn, i, raw)
		}
	}
	return trOn.spans, traced[warm:], plain[warm:], mismatches
}

// tracedReplays runs the paired replays and reports the remainder and
// overhead metrics; served is the untraced run's mean ServeHTTP time in ms.
// fresh builds each side's replayer with its own state. A workload whose
// requests share no state between them (compile: distinct keys; labels)
// replays every offEveryStateless-th request untraced; serve-hot's untraced
// replay must see every request for its L1 to hit as the server's did.
func (b *bench) tracedReplays(warm, total, offEvery int, served float64, fresh func(tag string) (replayer, error)) (
	at map[string]layerTime, spans []span, self []int64, replayed int, err error) {
	on, err := fresh("traced")
	if err != nil {
		return nil, nil, nil, 0, err
	}
	off, err := fresh("untraced")
	if err != nil {
		return nil, nil, nil, 0, err
	}
	spans, traced, plain, bad := b.replay(warm, total, offEvery, on, off)
	var pairedOn, pairedOff time.Duration
	for i, d := range plain {
		if d > 0 {
			pairedOn += traced[i]
			pairedOff += d
		}
	}
	b.values["service.unattributed_us_per_req"] = (served - meanMS(traced)) * 1e3
	b.values["trace.overhead_pct"] = ratio(float64(pairedOn-pairedOff), float64(pairedOff)) * 100
	if bad > 0 {
		fmt.Fprintf(b.log, "perfbench: %d replayed responses differ from the server's; per-layer times may not match it\n", bad)
	}
	b.prov["replay_mismatches"] = bad
	b.spans = append(b.spans, spans...)
	self = selfTimes(spans)
	return byName(spans, self), spans, self, completed(traced), nil
}

// offEveryStateless is how often a replay of requests that share no state
// also runs untraced: a quarter of the pairs estimates the overhead, and
// the traced compile run ends 40 s sooner than with every pair.
const offEveryStateless = 4

// meanMS is the mean of the durations that were run, in ms.
func meanMS(ds []time.Duration) float64 {
	var sum time.Duration
	n := 0
	for _, d := range ds {
		if d > 0 {
			sum += d
			n++
		}
	}
	return ratio(ms(sum), float64(n))
}

// perReq sets name to the summed self time of span (in unit) per request.
func (b *bench) perReq(at map[string]layerTime, name, span string, unit time.Duration, n int) {
	b.values[name] = ratio(float64(at[span].self)/float64(unit), float64(n))
}

// mapKey is lisa-serve's content address of a mapping request: the hex
// SHA-256 of the arch, engine, deadline, normalized options and the DFG's
// canonical encoding.
func mapKey(g *dfg.Graph, archName string, eng engine.Name, opts mapper.Options, deadlineMS int64) string {
	h := sha256.New()
	fmt.Fprintf(h, "lisa-serve/v1\narch=%s\nengine=%s\ndeadlineMs=%d\n", archName, eng, deadlineMS)
	o := opts.Normalized()
	fmt.Fprintf(h, "opts=seed:%d,maxMoves:%d,movesPerTemp:%d,initTemp:%g,cool:%g,alpha:%g,maxII:%d,restarts:%d\n",
		o.Seed, o.MaxMoves, o.MovesPerTemp, o.InitTemp, o.Cool, o.Alpha, o.MaxII, o.Restarts)
	_ = g.WriteCanonical(h) // hash.Hash writes never fail
	return hex.EncodeToString(h.Sum(nil))
}

// timedLabels is the engine.LabelSource of a traced replay: the registry,
// with each lookup in a registry.labels span nested in the engine.run span.
type timedLabels struct {
	reg         *registry.Registry
	tr          *tracer
	req, parent int
}

func (l *timedLabels) LabelsFor(ar arch.Arch, g *dfg.Graph) (*labels.Labels, error) {
	h := l.tr.begin("registry.labels", l.req, l.parent)
	defer l.tr.end(h)
	return l.reg.LabelsFor(ar, g)
}

// serveDefaults is lisa-serve's default configuration, whose deadline,
// annealing budget and cache bounds the replays apply as the server does.
var serveDefaults = service.DefaultConfig()

// mapState is one replay's own L1 and store.
type mapState struct {
	cache *service.Cache
	st    *store.Store
}

// mapSteps performs one /v1/map request as lisa-serve does: decode and
// validate, build the DFG, key it, look it up in L1 and then the store,
// and on a miss map it, verify, encode and write it through both tiers.
func (b *bench) mapSteps(tr *tracer, i int, raw []byte, s mapState) []byte {
	cfg := serveDefaults
	root := tr.begin("request", i, -1)
	defer tr.end(root)

	h := tr.begin("service.decode", i, root)
	var req service.MapRequest
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	ar, okArch := arch.ByName(req.Arch)
	eng, errEng := engine.Parse(req.Engine)
	tr.end(h)
	if err != nil || !okArch || errEng != nil || req.Seed == nil {
		return nil
	}

	h = tr.begin("dfg.build", i, root)
	g, err := kernels.ByName(req.Kernel)
	if err == nil && req.Unroll > 1 {
		g = dfg.Unroll(g, req.Unroll)
	}
	tr.end(h)
	if err != nil {
		return nil
	}

	opts := cfg.MapOpts
	opts.Seed = *req.Seed
	if req.Restarts > 0 {
		opts.Restarts = req.Restarts
	}
	opts.TimeLimit = cfg.DefaultDeadline
	h = tr.begin("service.key", i, root)
	key := mapKey(g, ar.Name(), eng, opts, cfg.DefaultDeadline.Milliseconds())
	tr.end(h)

	h = tr.begin("cache.get", i, root)
	body, hit := s.cache.Get(key)
	tr.end(h)
	if hit {
		return body
	}
	h = tr.begin("store.get", i, root)
	body, err = s.st.Get(key)
	tr.end(h)
	if err == nil {
		h = tr.begin("cache.add", i, root)
		s.cache.Add(key, body)
		tr.end(h)
		return body
	}

	h = tr.begin("engine.run", i, root)
	rr, err := engine.Run(ar, g, engine.Request{
		Engine: eng,
		Labels: &timedLabels{reg: b.su.reg, tr: tr, req: i, parent: h},
		Opts:   engine.Options{Map: opts, ILP: cfg.ILPOpts},
	})
	tr.end(h)
	if err != nil {
		return nil
	}
	res := rr.Result
	if res.OK {
		h = tr.begin("mapper.verify", i, root)
		err = mapper.Verify(ar, g, &res)
		tr.end(h)
		if err != nil {
			return nil
		}
	}
	res.Duration = 0

	h = tr.begin("service.encode", i, root)
	resp := service.MapResponse{Key: key, Arch: ar.Name(), Engine: string(eng), Seed: opts.Seed,
		Kernel: req.Kernel, Nodes: g.NumNodes(), Edges: g.NumEdges(), Result: res}
	if rr.Engine != eng {
		resp.EngineUsed = string(rr.Engine)
	}
	body, err = json.Marshal(&resp)
	body = append(body, '\n')
	tr.end(h)
	if err != nil {
		return nil
	}
	if len(res.Degraded) == 0 && !res.DeadlineExceeded {
		h = tr.begin("store.put", i, root)
		_ = s.st.Put(key, body) // a failed write costs persistence only, as in lisa-serve
		tr.end(h)
		h = tr.begin("cache.add", i, root)
		s.cache.Add(key, body)
		tr.end(h)
	}
	return body
}

// newMapState opens a fresh store under the run directory (or reuses st)
// behind a fresh L1 with the server's bounds.
func (b *bench) newMapState(tag string, st *store.Store) (mapState, error) {
	if st == nil {
		var err error
		if st, err = store.Open(filepath.Join(b.dir, "replay-"+tag)); err != nil {
			return mapState{}, err
		}
	}
	return mapState{cache: service.NewCache(hotCacheEntries, serveDefaults.CacheBytes), st: st}, nil
}

// replayCompile replays the compile list into fresh stores and reports the
// mapper, registry, verify, encode and store-write layers.
func (b *bench) replayCompile(list []mapReq, bodies [][]byte, out []mapOutcome, warm int, served float64) error {
	at, spans, self, n, err := b.tracedReplays(warm, len(list), offEveryStateless, served, func(tag string) (replayer, error) {
		s, err := b.newMapState(tag, nil)
		return replayer{
			request: func(i int) []byte { return bodies[i] },
			step:    func(tr *tracer, i int, raw []byte) ([]byte, any) { return b.mapSteps(tr, i, raw, s), nil },
			after:   func(_ *tracer, i int, body []byte, _ any) bool { return sum256(body) == out[i].sum },
		}, err
	})
	if err != nil {
		return err
	}
	b.mapLayers(at, n)
	// The engine.run self time excludes the nested registry.labels span.
	var k1, k4 time.Duration
	var n1, n4 int
	for j, s := range spans {
		if s.name != "engine.run" {
			continue
		}
		if list[s.req].Restarts > 1 {
			k4 += time.Duration(self[j])
			n4++
		} else {
			k1 += time.Duration(self[j])
			n1++
		}
	}
	b.values["mapper.k1_ms_per_req"] = ratio(ms(k1), float64(n1))
	b.values["mapper.k4_ms_per_req"] = ratio(ms(k4), float64(n4))
	return nil
}

// mapLayers reports the per-request self time of every /v1/map layer.
func (b *bench) mapLayers(at map[string]layerTime, n int) {
	b.perReq(at, "service.decode_us_per_req", "service.decode", time.Microsecond, n)
	b.perReq(at, "dfg.build_us_per_req", "dfg.build", time.Microsecond, n)
	b.perReq(at, "service.key_us_per_req", "service.key", time.Microsecond, n)
	b.perReq(at, "cache.get_us_per_req", "cache.get", time.Microsecond, n)
	b.perReq(at, "mapper.ms_per_req", "engine.run", time.Millisecond, n)
	b.perReq(at, "registry.labels_ms_per_req", "registry.labels", time.Millisecond, n)
	b.perReq(at, "mapper.verify_ms_per_req", "mapper.verify", time.Millisecond, n)
	b.perReq(at, "service.encode_ms_per_req", "service.encode", time.Millisecond, n)
	b.perReq(at, "store.put_ms_per_req", "store.put", time.Millisecond, n)
	sg := at["store.get"]
	b.values["store.get_us_per_call"] = ratio(float64(sg.self)/1e3, float64(sg.calls))
}
