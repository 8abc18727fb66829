package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"github.com/lisa-go/lisa/internal/arch"
	"github.com/lisa-go/lisa/internal/gnn"
	"github.com/lisa-go/lisa/internal/registry"
	"github.com/lisa-go/lisa/internal/service"
	"github.com/lisa-go/lisa/internal/traingen"
)

// bench is one run of one workload.
type bench struct {
	opts options
	ar   arch.Arch
	dir  string
	log  io.Writer
	stop time.Time

	su    *setupResult
	spans []span // trace mode: every recorded span, written out at the end

	values    map[string]float64
	prov      map[string]any
	attempted int
	failed    int
	problems  []string
}

func newBench(opts options, dir string, log io.Writer) (*bench, error) {
	ar, ok := arch.ByName(archName)
	if !ok {
		return nil, fmt.Errorf("unknown arch %s", archName)
	}
	b := &bench{
		opts:   opts,
		ar:     ar,
		dir:    dir,
		log:    log,
		stop:   time.Now().Add(runBudget),
		values: make(map[string]float64),
		prov:   make(map[string]any),
	}
	for _, d := range perLayer {
		b.values[d.name] = 0
	}
	return b, nil
}

func (b *bench) close() {
	if b.su != nil {
		b.su.srv.Close()
	}
}

// problem records a failed check that is not tied to one request.
func (b *bench) problem(format string, args ...any) {
	b.problems = append(b.problems, fmt.Sprintf(format, args...))
	b.failed++
}

// listLen returns the warm-up and measured request counts: the workload's
// one-client rate on a 2-vCPU machine times --seconds, but never fewer than
// the 1000 measured requests that leave ten samples beyond p99, rounded up
// to whole decks of the workload's request mix.
func (b *bench) listLen() (warm, measured int) {
	if b.opts.measured > 0 {
		return b.opts.warmup, b.opts.measured
	}
	var rate, deck int
	switch b.opts.workload {
	case wCompile:
		rate, deck = 30, len(compileDeck())
	case wServeHot:
		rate, deck = 16000, 1
	case wLabels:
		rate, deck = 50, maxLabelBatch
	}
	measured = max(rate*b.opts.seconds, 1000)
	measured = (measured + deck - 1) / deck * deck
	return measured / 25, measured
}

// setUp performs the run's set-up. An untraced run sets up setupReps times
// from scratch and reports the median as setup_s; every set-up must train a
// bit-identical model and, for serve-hot, warm byte-identical bodies. A
// traced run sets up once, with spans around each layer.
func (b *bench) setUp(hot []mapReq) error {
	if b.opts.trace {
		return b.tracedSetUp(hot)
	}
	var times []float64
	for rep := 0; rep < setupReps; rep++ {
		su, err := setUp(b.ar, b.opts.reg, filepath.Join(b.dir, "store-"+strconv.Itoa(rep)), hot, b.stop)
		if err != nil {
			return err
		}
		times = append(times, su.elapsed.Seconds())
		b.failed += su.failed
		if prev := b.su; prev != nil {
			if su.digest != prev.digest {
				b.problem("set-up %d trained a model with another digest: training is not deterministic", rep)
			}
			for i := range su.warm {
				if !bytes.Equal(su.warm[i], prev.warm[i]) {
					b.problem("set-up %d warmed another body for working-set key %d", rep, i)
				}
			}
			prev.srv.Close()
			if err := os.RemoveAll(prev.st.Dir()); err != nil {
				return err
			}
		}
		b.su = su
	}
	b.values["setup_s"] = median(times)
	b.prov["setup_reps"] = len(times)
	b.prov["model_sha256"] = fmt.Sprintf("%x", b.su.digest)
	return nil
}

// tracedSetUp is lisa-serve's on-demand training step by step, as the
// registry runs it: traingen.Generate, gnn.Model.Train, registry.Put, then
// serve-hot's warm phase.
func (b *bench) tracedSetUp(hot []mapReq) error {
	tr := &tracer{on: true, epoch: time.Now()}
	root := tr.begin("setup", -1, -1)
	cfg := b.opts.reg

	h := tr.begin("traingen.generate", -1, root)
	tg := cfg.TrainGen
	tg.Seed = cfg.Seed
	if tg.Workers == 0 {
		tg.Workers = cfg.Workers
	}
	ds := traingen.Generate(b.ar, tg)
	tr.end(h)

	h = tr.begin("gnn.train", -1, root)
	m := gnn.NewModel(rand.New(rand.NewSource(cfg.Seed)), b.ar.Name())
	ts := m.Train(ds.Samples, cfg.TrainCfg)
	tr.end(h)

	h = tr.begin("registry.put", -1, root)
	reg := registry.New(cfg)
	reg.Put(m)
	tr.end(h)

	h = -1
	if len(hot) > 0 {
		h = tr.begin("setup.warm", -1, root)
	}
	su, err := serve(reg, m, filepath.Join(b.dir, "store"), hot, b.stop)
	tr.end(h)
	tr.end(root)
	if err != nil {
		return err
	}
	if su.digest, err = modelDigest(m); err != nil {
		return err
	}
	b.su = su
	b.failed += su.failed
	b.values["setup.warm_maps"] = float64(su.warmMaps)

	self := selfTimes(tr.spans)
	at := byName(tr.spans, self)
	b.values["traingen.generate_s"] = float64(at["traingen.generate"].self) / 1e9
	b.values["traingen.admitted_ratio"] = ratio(float64(ds.Stats.Admitted), float64(ds.Stats.Generated))
	b.values["gnn.train_s"] = float64(at["gnn.train"].self) / 1e9
	b.values["gnn.train_epochs"] = float64(ts.Epochs)
	b.values["setup.warm_s"] = float64(at["setup.warm"].self) / 1e9
	b.spans = append(b.spans, tr.spans...)
	b.prov["model_sha256"] = fmt.Sprintf("%x", su.digest)
	return nil
}

// serverCounts are the /metrics counters the benchmark reads.
type serverCounts struct {
	l1Hits, storeHits, storeMisses int64
	mapperRuns, degraded, rejected int64
}

func (c serverCounts) sub(o serverCounts) serverCounts {
	return serverCounts{
		l1Hits: c.l1Hits - o.l1Hits, storeHits: c.storeHits - o.storeHits, storeMisses: c.storeMisses - o.storeMisses,
		mapperRuns: c.mapperRuns - o.mapperRuns, degraded: c.degraded - o.degraded, rejected: c.rejected - o.rejected,
	}
}

// metricsOf reads the server's counters through GET /metrics.
func metricsOf(h http.Handler) serverCounts {
	req, err := http.NewRequest(http.MethodGet, "/metrics", nil)
	if err != nil {
		panic(err) // a constant path always parses
	}
	rec := newRecorder()
	h.ServeHTTP(rec, req)
	var snap service.MetricsSnapshot
	if err := json.Unmarshal(rec.body.Bytes(), &snap); err != nil {
		return serverCounts{}
	}
	c := serverCounts{l1Hits: snap.Cache.Hits, rejected: snap.Rejected}
	if snap.Store != nil {
		c.storeHits, c.storeMisses = snap.Store.Hits, snap.Store.Misses
	}
	for _, e := range snap.Engines {
		c.mapperRuns += e.Count
		c.degraded += e.Degraded
	}
	return c
}

// measured runs the measured phase: run sends the measured slice and
// returns how many requests it sent. It records the throughput, the process
// metrics and the server counters of the phase, and returns the count.
func (b *bench) measured(h http.Handler, n int, run func() int) int {
	before := metricsOf(h)
	var done int
	ph, reset := measure(func() { done = run() })
	c := metricsOf(h).sub(before)
	if done < n {
		fmt.Fprintf(b.log, "perfbench: run budget spent after %d of %d measured requests\n", done, n)
		b.prov["truncated"] = true
	}
	fmt.Fprintf(b.log, "perfbench: %s: %d requests in %.3fs, %.3f CPU-ms each\n",
		b.opts.workload, done, ph.wall.Seconds(), ms(ph.cpu)/float64(max(done, 1)))
	b.values["throughput_rps"] = ratio(float64(done), ph.wall.Seconds())
	b.values["peak_rss_mb"] = median(ph.peakMiB)
	b.values["process.cpu_ms_per_req"] = ms(ph.cpu) / float64(max(done, 1))
	b.values["process.allocs_per_req"] = float64(ph.mallocs) / float64(max(done, 1))
	b.values["process.gc_cycles"] = float64(ph.gcs)
	b.values["mapper.runs"] = float64(c.mapperRuns)
	b.values["engine.degraded_ratio"] = ratio(float64(c.degraded), float64(done))
	b.values["service.rejected_ratio"] = ratio(float64(c.rejected), float64(done))
	b.values["cache.l1_hit_ratio"] = ratio(float64(c.l1Hits), float64(done))
	b.values["store.hit_ratio"] = ratio(float64(c.storeHits), float64(c.storeHits+c.storeMisses))
	b.prov["rss_peak_reset"] = reset
	b.prov["samples"] = done
	b.prov["store_fs"] = fsType(b.dir)
	return done
}

// latencyMetrics reports p50 and p99 of the measured slice's ServeHTTP
// times over the whole phase, a failed request counting as +Inf, and
// returns the mean in ms. Requests never sent (lat 0) are left out.
func (b *bench) latencyMetrics(lat []time.Duration, failed []bool) float64 {
	var sum float64
	samples := make(latencies, 0, len(lat))
	for i, d := range lat {
		if d == 0 {
			continue
		}
		sum += ms(d)
		if failed[i] {
			samples = append(samples, posInf)
		} else {
			samples = append(samples, ms(d))
		}
	}
	n := len(samples)
	tail, ok := highestTail(n)
	if !ok || tail < 990 {
		fmt.Fprintf(b.log, "perfbench: only %d samples; p99 has fewer than ten beyond it\n", n)
	}
	sorted := samples.sorted()
	b.values["latency_p50_ms"] = percentile(sorted, 500)
	b.values["latency_p99_ms"] = percentile(sorted, 990)
	b.prov["tail_permille"] = tail
	return ratio(sum, float64(n))
}

// writeTrace writes the run's spans to the working directory, one
// file per workload and seed.
func (b *bench) writeTrace() error {
	path := filepath.Join(b.opts.dir, fmt.Sprintf("trace-%s-seed%d.tsv", b.opts.workload, b.opts.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeSpans(f, b.spans); err != nil {
		f.Close()
		return err
	}
	b.prov["trace_file"] = path
	b.prov["trace_spans"] = len(b.spans)
	return f.Close()
}

// sum256 is a response body's digest; the benchmark keeps digests, not
// bodies, so peak RSS measures the server rather than the benchmark.
func sum256(b []byte) [32]byte { return sha256.Sum256(b) }
