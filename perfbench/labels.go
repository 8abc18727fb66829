package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"time"

	"github.com/lisa-go/lisa/internal/arch"
	"github.com/lisa-go/lisa/internal/attr"
	"github.com/lisa-go/lisa/internal/dfg"
	"github.com/lisa-go/lisa/internal/engine"
	"github.com/lisa-go/lisa/internal/gnn"
	"github.com/lisa-go/lisa/internal/kernels"
	"github.com/lisa-go/lisa/internal/labels"
	"github.com/lisa-go/lisa/internal/service"
	"github.com/lisa-go/lisa/internal/sim"
)

// labelsRow is the /v1/labels row lisa-serve builds for one DFG.
func labelsRow(g *dfg.Graph, lbl *labels.Labels) service.LabelsRow {
	row := service.LabelsRow{Name: g.Name, Nodes: g.NumNodes(), Edges: g.NumEdges(),
		Order: lbl.Order, Spatial: lbl.Spatial, Temporal: lbl.Temporal}
	for p, v := range lbl.SameLevel {
		row.SameLevel = append(row.SameLevel, service.SameLevelEntry{A: p.A, B: p.B, Value: v})
	}
	sort.Slice(row.SameLevel, func(a, b int) bool {
		if row.SameLevel[a].A != row.SameLevel[b].A {
			return row.SameLevel[a].A < row.SameLevel[b].A
		}
		return row.SameLevel[a].B < row.SameLevel[b].B
	})
	return row
}

// expectedRows predicts every pool DFG alone with gnn.Model.Predict: the
// reference each served row must equal byte for byte (JSON round-trips a
// float64 exactly, so equal bytes are equal bits).
func expectedRows(p *labelsPool, m *gnn.Model) ([3][][]byte, error) {
	var rows [3][][]byte
	for kind, gs := range p.graphs {
		for _, g := range gs {
			lbl, err := m.Predict(attr.Generate(g))
			if err != nil {
				return rows, err
			}
			row, err := json.Marshal(labelsRow(g, lbl))
			if err != nil {
				return rows, err
			}
			rows[kind] = append(rows[kind], row)
		}
	}
	return rows, nil
}

// matchLabels reports whether body is the /v1/labels response whose rows
// are the expected rows of items, in lisa-serve's order.
func matchLabels(body []byte, items []labelItem, rows [3][][]byte) bool {
	const prefix = `{"arch":"` + archName + `","labels":[`
	rest, ok := bytes.CutPrefix(body, []byte(prefix))
	if !ok {
		return false
	}
	for k, it := range ordered(items) {
		if k > 0 {
			if rest, ok = bytes.CutPrefix(rest, []byte{','}); !ok {
				return false
			}
		}
		if rest, ok = bytes.CutPrefix(rest, rows[it.Kind][it.Index]); !ok {
			return false
		}
	}
	return string(rest) == "]}"
}

// labels is the GNN-inference workload: one closed-loop client sends
// /v1/labels batches; neither the mapper nor the result cache runs.
func (b *bench) labels() error {
	warm, n := b.listLen()
	pool, err := newLabelsPool(b.opts.seed)
	if err != nil {
		return err
	}
	list := labelsList(b.opts.seed, warm, n, pool)
	if err := b.setUp(nil); err != nil {
		return err
	}
	rows, err := expectedRows(pool, b.su.model)
	if err != nil {
		return err
	}
	h := b.su.srv.Handler()
	lat := make([]time.Duration, len(list))
	failed := make([]bool, len(list))
	build := func(i int) *http.Request { return newPost("/v1/labels", pool.appendLabelsBody(nil, list[i])) }
	done := func(i int, rec *recorder, d time.Duration) {
		lat[i] = d
		failed[i] = rec.status != http.StatusOK || !matchLabels(rec.body.Bytes(), list[i], rows)
	}
	drive(h, clients, 0, warm, b.stop, build, done)
	b.measured(h, n, func() int { return drive(h, clients, warm, warm+n, b.stop, build, done) })
	for i := range list {
		if lat[i] == 0 {
			continue
		}
		b.attempted++
		if failed[i] {
			b.failed++
		}
	}
	served := b.latencyMetrics(lat[warm:], failed[warm:])

	var dfgs, nodes, reqs float64
	for i, items := range list[warm:] {
		if lat[warm+i] == 0 {
			continue
		}
		reqs++
		for _, it := range items {
			dfgs++
			nodes += float64(pool.graph(it).NumNodes())
		}
	}
	b.values["labels.dfgs_per_req"] = ratio(dfgs, reqs)
	b.values["labels.nodes_per_req"] = ratio(nodes, reqs)
	if err := b.labelQuality(); err != nil {
		return err
	}
	if b.opts.trace {
		return b.replayLabels(pool, list, rows, warm, served)
	}
	return nil
}

// labelProbeSeeds are the mapping seeds of the label-quality probe. They
// are fixed, like the training seed, so the probe measures the model and
// the mapper rather than the workload seed.
var labelProbeSeeds = []int64{1, 2}

// labelQuality reports the mapping quality the served labels buy: each
// PolyBench kernel mapped by engine lisa at every probe seed with this
// model's labels (the registry, as lisa-serve hands it to the engine), each
// OK mapping checked by sim.Run.
func (b *bench) labelQuality() error {
	var n, ok, ii, cost float64
	for _, name := range kernels.Names() {
		for _, seed := range labelProbeSeeds {
			g := kernels.MustByName(name)
			opts := serveDefaults.MapOpts
			opts.Seed = seed
			rr, err := engine.Run(b.ar, g, engine.Request{Engine: engine.LISA, Labels: b.su.reg, Opts: engine.Options{Map: opts}})
			if err != nil {
				return fmt.Errorf("mapping %s: %w", name, err)
			}
			n++
			b.attempted++
			if !rr.OK {
				continue
			}
			if _, err := sim.Run(b.ar, g, &rr.Result, simIterations); err != nil {
				fmt.Fprintf(b.log, "perfbench: %s mapped with served labels: %v\n", name, err)
				b.failed++
				continue
			}
			ok++
			ii += float64(rr.II)
			cost += float64(rr.RoutingCost)
		}
	}
	b.values["ii_mean"] = ratio(ii, ok)
	b.values["mapped_ratio"] = ratio(ok, n)
	b.values["routing_cost_mean"] = ratio(cost, ok)
	return nil
}

// labelsSteps performs one /v1/labels request as lisa-serve does: decode
// and validate, build named kernels, decode inline DFGs, generate
// attributes, predict the batch in one fused pass and encode the rows. It
// also returns the attribute sets, for the per-DFG Predict reference loop.
func (b *bench) labelsSteps(tr *tracer, i int, raw []byte, m *gnn.Model) ([]byte, any) {
	root := tr.begin("request", i, -1)
	defer tr.end(root)

	h := tr.begin("service.decode", i, root)
	var req service.LabelsRequest
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	ar, okArch := arch.ByName(req.Arch)
	tr.end(h)
	if err != nil || !okArch {
		return nil, nil
	}

	gs := make([]*dfg.Graph, 0, len(req.Kernels)+len(req.DFGs))
	h = tr.begin("dfg.build", i, root)
	for _, name := range req.Kernels {
		g, err := kernels.ByName(name)
		if err != nil {
			tr.end(h)
			return nil, nil
		}
		gs = append(gs, g)
	}
	tr.end(h)
	h = tr.begin("dfg.readjson", i, root)
	for _, doc := range req.DFGs {
		g, err := dfg.ReadJSON(bytes.NewReader(doc))
		if err == nil {
			err = g.CheckSize(serveDefaults.MaxDFGNodes, serveDefaults.MaxDFGEdges)
		}
		if err != nil {
			tr.end(h)
			return nil, nil
		}
		gs = append(gs, g)
	}
	tr.end(h)

	h = tr.begin("attr.generate", i, root)
	sets := make([]*attr.Set, len(gs))
	for k, g := range gs {
		sets[k] = attr.Generate(g)
	}
	tr.end(h)
	h = tr.begin("gnn.predict_batch", i, root)
	preds, err := m.PredictBatch(sets)
	tr.end(h)
	if err != nil {
		return nil, nil
	}

	h = tr.begin("service.encode", i, root)
	resp := service.LabelsResponse{Arch: ar.Name(), Labels: make([]service.LabelsRow, len(gs))}
	for k, g := range gs {
		resp.Labels[k] = labelsRow(g, preds[k])
	}
	body, err := json.Marshal(resp)
	tr.end(h)
	if err != nil {
		return nil, nil
	}
	return body, sets
}

// replayLabels replays the labels list and reports the decode, inference
// and encode layers per DFG, beside the reference loop of per-DFG Predict
// calls on the same attribute sets, timed outside the request span.
func (b *bench) replayLabels(pool *labelsPool, list [][]labelItem, rows [3][][]byte, warm int, served float64) error {
	m := b.su.model
	at, spans, _, replayed, err := b.tracedReplays(warm, len(list), offEveryStateless, served, func(string) (replayer, error) {
		return replayer{
			request: func(i int) []byte { return pool.appendLabelsBody(nil, list[i]) },
			step: func(tr *tracer, i int, raw []byte) ([]byte, any) {
				return b.labelsSteps(tr, i, raw, m)
			},
			after: func(tr *tracer, i int, body []byte, aux any) bool {
				if sets, ok := aux.([]*attr.Set); ok && tr.on {
					h := tr.begin("gnn.predict_loop", i, -1)
					for _, set := range sets {
						_, _ = m.Predict(set) // the same model and sets just predicted without error
					}
					tr.end(h)
				}
				return matchLabels(body, list[i], rows)
			},
		}, nil
	})
	if err != nil {
		return err
	}
	var dfgs, inline float64
	for _, s := range spans {
		if s.name != "request" {
			continue
		}
		for _, it := range list[s.req] {
			dfgs++
			if it.Kind != kindNamed {
				inline++
			}
		}
	}
	b.perReq(at, "service.decode_us_per_req", "service.decode", time.Microsecond, replayed)
	b.perReq(at, "dfg.build_us_per_req", "dfg.build", time.Microsecond, replayed)
	b.perReq(at, "service.encode_ms_per_req", "service.encode", time.Millisecond, replayed)
	b.values["dfg.readjson_us_per_dfg"] = ratio(float64(at["dfg.readjson"].self)/1e3, inline)
	b.values["attr.generate_us_per_dfg"] = ratio(float64(at["attr.generate"].self)/1e3, dfgs)
	b.values["gnn.predict_batch_us_per_dfg"] = ratio(float64(at["gnn.predict_batch"].self)/1e3, dfgs)
	b.values["gnn.predict_loop_us_per_dfg"] = ratio(float64(at["gnn.predict_loop"].self)/1e3, dfgs)
	return nil
}
