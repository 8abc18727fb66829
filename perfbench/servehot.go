package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"github.com/lisa-go/lisa/internal/service"
)

// serveHot is the cached-serving workload: one closed-loop client replays
// Zipf-popular keys from a working set four times the L1, so every request
// is answered from L1 or the store and the mapper never runs.
func (b *bench) serveHot() error {
	warm, n := b.listLen()
	set, list := serveHotList(b.opts.seed, hotWorkingSet, warm+n)
	bodies := make([][]byte, len(set))
	for i, r := range set {
		bodies[i] = r.body()
	}
	if err := b.setUp(set); err != nil {
		return err
	}
	h := b.su.srv.Handler()
	lat := make([]time.Duration, len(list))
	failed := make([]bool, len(list))
	build := func(i int) *http.Request { return newPost("/v1/map", bodies[list[i]]) }
	done := func(i int, rec *recorder, d time.Duration) {
		lat[i] = d
		failed[i] = rec.status != http.StatusOK || !bytes.Equal(rec.body.Bytes(), b.su.warm[list[i]])
	}
	drive(h, clients, 0, warm, b.stop, build, done)
	b.measured(h, n, func() int { return drive(h, clients, warm, warm+n, b.stop, build, done) })

	// Every served body equals its key's warm-phase body; each of those must
	// also be a correct mapping.
	keyErr := make([]error, len(set))
	for k, r := range set {
		keyErr[k] = b.checkMapBody(r, b.su.warm[k])
		if keyErr[k] != nil {
			fmt.Fprintf(b.log, "perfbench: working-set key %d (%+v): %v\n", k, r, keyErr[k])
		}
	}
	for i := range list {
		if lat[i] == 0 {
			continue
		}
		b.attempted++
		if keyErr[list[i]] != nil {
			failed[i] = true
		}
		if failed[i] {
			b.failed++
		}
	}
	served := b.latencyMetrics(lat[warm:], failed[warm:])
	if err := b.workingSetQuality(); err != nil {
		return err
	}
	if !b.opts.trace {
		return nil
	}
	// The replay's own L1 has the server's bound and reads the server's
	// store, so its hit sequence is the untraced run's.
	at, _, _, replayed, err := b.tracedReplays(warm, len(list), 1, served, func(tag string) (replayer, error) {
		s, err := b.newMapState(tag, b.su.st)
		return replayer{
			request: func(i int) []byte { return bodies[list[i]] },
			step:    func(tr *tracer, i int, raw []byte) ([]byte, any) { return b.mapSteps(tr, i, raw, s), nil },
			after:   func(_ *tracer, i int, body []byte, _ any) bool { return bytes.Equal(body, b.su.warm[list[i]]) },
		}, err
	})
	if err != nil {
		return err
	}
	b.mapLayers(at, replayed)
	return nil
}

// workingSetQuality reports the mapping quality of the working set the
// set-up compiled, each key once: the mappings every request is served.
func (b *bench) workingSetQuality() error {
	var n, ok, ii, cost float64
	for k, body := range b.su.warm {
		var resp service.MapResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("warm body %d: %w", k, err)
		}
		n++
		if r := resp.Result; r.OK {
			ok++
			ii += float64(r.II)
			cost += float64(r.RoutingCost)
		}
	}
	b.values["ii_mean"] = ratio(ii, ok)
	b.values["mapped_ratio"] = ratio(ok, n)
	b.values["routing_cost_mean"] = ratio(cost, ok)
	return nil
}
