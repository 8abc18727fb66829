package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"github.com/lisa-go/lisa/internal/dfg"
	"github.com/lisa-go/lisa/internal/kernels"
	"github.com/lisa-go/lisa/internal/parallel"
	"github.com/lisa-go/lisa/internal/service"
	"github.com/lisa-go/lisa/internal/sim"
)

// simIterations is how many pipelined loop iterations sim.Run executes per
// checked mapping.
const simIterations = 4

// mapOutcome is what the benchmark keeps of one /v1/map response: a digest
// and the quality numbers, never the body unless no cache tier keeps it.
type mapOutcome struct {
	status    int
	sum       [32]byte
	ok        bool
	ii, cost  int
	moves     int
	tried     int
	portfolio bool
	winner0   bool
	optimal   bool
	noStore   bool
	keep      []byte
}

// mapSummary is the part of a MapResponse body the benchmark reads.
type mapSummary struct {
	Result struct {
		OK          bool  `json:"ok"`
		II          int   `json:"ii"`
		RoutingCost int   `json:"routingCost"`
		Moves       int   `json:"moves"`
		TriedIIs    []int `json:"triedIIs"`
		Portfolio   *struct {
			Winner          int  `json:"winner"`
			ProvablyOptimal bool `json:"provablyOptimal"`
		} `json:"portfolio"`
	} `json:"result"`
}

// outcomeOf summarizes one recorded /v1/map response.
func outcomeOf(rec *recorder) mapOutcome {
	body := rec.body.Bytes()
	o := mapOutcome{status: rec.status, sum: sum256(body), noStore: rec.hdr.Get("X-Lisa-No-Store") != ""}
	if o.status != http.StatusOK {
		return o
	}
	var s mapSummary
	if err := json.Unmarshal(body, &s); err != nil {
		o.status = 0
		return o
	}
	r := s.Result
	o.ok, o.ii, o.cost, o.moves, o.tried = r.OK, r.II, r.RoutingCost, r.Moves, len(r.TriedIIs)
	if p := r.Portfolio; p != nil {
		o.portfolio, o.winner0, o.optimal = true, p.Winner == 0, p.ProvablyOptimal
	}
	if o.noStore {
		o.keep = bytes.Clone(body)
	}
	return o
}

// graphOf builds a request's DFG independently of the server.
func graphOf(r mapReq) (*dfg.Graph, error) {
	g, err := kernels.ByName(r.Kernel)
	if err != nil {
		return nil, err
	}
	if r.Unroll > 1 {
		g = dfg.Unroll(g, r.Unroll)
	}
	return g, nil
}

// compile is the cold-compile workload: one closed-loop client, every
// request a distinct key, so the mapper runs for each one.
func (b *bench) compile() error {
	warm, n := b.listLen()
	list := compileList(b.opts.seed, warm, n)
	bodies := make([][]byte, len(list))
	for i, r := range list {
		bodies[i] = r.body()
	}
	if err := b.setUp(nil); err != nil {
		return err
	}
	h := b.su.srv.Handler()
	out := make([]mapOutcome, len(list))
	lat := make([]time.Duration, len(list))
	build := func(i int) *http.Request { return newPost("/v1/map", bodies[i]) }
	done := func(i int, rec *recorder, d time.Duration) { lat[i], out[i] = d, outcomeOf(rec) }
	drive(h, clients, 0, warm, b.stop, build, done)
	b.measured(h, n, func() int { return drive(h, clients, warm, warm+n, b.stop, build, done) })

	failed := b.checkMaps(h, list, bodies, lat, out)
	served := b.latencyMetrics(lat[warm:], failed[warm:])
	b.mapQuality(out[warm:], lat[warm:])
	if b.opts.trace {
		return b.replayCompile(list, bodies, out, warm, served)
	}
	return nil
}

// checkMaps checks every sent compile request: a 200 whose body the server
// returns byte-identically when asked again (from L1 or the store), that
// answers the request, and whose mapping, when OK, sim.Run executes cycle
// by cycle to the store stream of sim.Reference.
func (b *bench) checkMaps(h http.Handler, list []mapReq, bodies [][]byte, lat []time.Duration, out []mapOutcome) []bool {
	bad := parallel.MapOrdered(runtime.NumCPU(), len(list), func(i int) error {
		if lat[i] == 0 {
			return nil // never sent
		}
		o := out[i]
		if o.status != http.StatusOK {
			return fmt.Errorf("status %d", o.status)
		}
		body := o.keep
		if !o.noStore {
			rec := newRecorder()
			h.ServeHTTP(rec, newPost("/v1/map", bodies[i]))
			if c := rec.hdr.Get("X-Lisa-Cache"); rec.status != http.StatusOK || (c != "hit" && c != "store") {
				return fmt.Errorf("asked again: status %d, cache %q", rec.status, c)
			}
			if sum256(rec.body.Bytes()) != o.sum {
				return fmt.Errorf("asked again: another body")
			}
			body = rec.body.Bytes()
		}
		return b.checkMapBody(list[i], body)
	})
	failed := make([]bool, len(list))
	for i, err := range bad {
		if lat[i] != 0 {
			b.attempted++
		}
		if err != nil {
			failed[i] = true
			b.failed++
			if b.failed <= 5 {
				fmt.Fprintf(b.log, "perfbench: request %d (%+v): %v\n", i, list[i], err)
			}
		}
	}
	return failed
}

// checkMapBody checks that body answers r and that its mapping, if OK,
// computes the kernel's values.
func (b *bench) checkMapBody(r mapReq, body []byte) error {
	var resp service.MapResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	g, err := graphOf(r)
	if err != nil {
		return err
	}
	if resp.Kernel != r.Kernel || resp.Seed != r.Seed || resp.Nodes != g.NumNodes() || resp.Edges != g.NumEdges() {
		return fmt.Errorf("body answers another request: %s seed %d, %d nodes", resp.Kernel, resp.Seed, resp.Nodes)
	}
	if !resp.Result.OK {
		return nil
	}
	_, err = sim.Run(b.ar, g, &resp.Result, simIterations)
	return err
}

// mapQuality reports the mapping-quality metrics and the mapper's work
// counts over the measured slice's responses.
func (b *bench) mapQuality(out []mapOutcome, lat []time.Duration) {
	var n, ok, ii, cost, moves, tried, k4, win0, opt float64
	for i, o := range out {
		if lat[i] == 0 || o.status != http.StatusOK {
			continue
		}
		n++
		moves += float64(o.moves)
		tried += float64(o.tried)
		if o.ok {
			ok++
			ii += float64(o.ii)
			cost += float64(o.cost)
		}
		if o.portfolio {
			k4++
			if o.winner0 {
				win0++
			}
			if o.optimal {
				opt++
			}
		}
	}
	b.values["ii_mean"] = ratio(ii, ok)
	b.values["mapped_ratio"] = ratio(ok, n)
	b.values["routing_cost_mean"] = ratio(cost, ok)
	b.values["mapper.moves_per_req"] = ratio(moves, n)
	b.values["mapper.ii_attempts_per_req"] = ratio(tried, n)
	b.values["mapper.ii_wasted_ratio"] = ratio(tried-ok, tried)
	b.values["mapper.portfolio.chain0_win_ratio"] = ratio(win0, k4)
	b.values["mapper.portfolio.optimal_ratio"] = ratio(opt, k4)
}
