// Command perfbench is lisa-serve's end-to-end and per-layer benchmark. It
// drives service.Server.Handler() in process, calling ServeHTTP with a
// response recorder, so every CPU cycle it measures belongs to the server
// and none to sockets or a client process.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload compile --seed 1 --seconds 15 --trace 0
//
// Each workload replays one seeded, fixed request list on cgra-4x4 (see
// README.md for the workloads, the metrics and the layer each moves). The
// last line of standard output is the result: {"correct", "attempted",
// "failed", "metrics"}, end-to-end metrics with --trace 0 and per-layer
// metrics with --trace 1. The line before it records provenance.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/lisa-go/lisa/internal/registry"
)

// Seeds: defaultSeed is the one a change is developed against; a gain must
// also hold on heldOutSeed, which is not used while a change is written.
const (
	defaultSeed = 1
	heldOutSeed = 7
)

// setupReps is how many complete set-ups a run times; setup_s is their
// median.
const setupReps = 3

// runBudget bounds one invocation: clients stop taking requests once it is
// spent, so a run on an overloaded machine ends late rather than never.
const runBudget = 150 * time.Second

// options configures one run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	dir      string // working directory for stores and trace files
	reg      registry.Config
	// warmup and measured, when positive, override the request-list length
	// (the smoke tests run tiny lists).
	warmup, measured int
}

// metricDef is one reported metric.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics a --trace 0 run reports.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_rps", "req/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"peak_rss_mb", "MiB"},
	{"ii_mean", "cycles"},
	{"mapped_ratio", "fraction"},
	{"routing_cost_mean", "resources"},
}

// perLayer lists the metrics a --trace 1 run reports. A layer a workload
// does not exercise reads 0.
var perLayer = []metricDef{
	{"mapper.ms_per_req", "ms"},
	{"mapper.k1_ms_per_req", "ms"},
	{"mapper.k4_ms_per_req", "ms"},
	{"mapper.moves_per_req", "moves"},
	{"mapper.ii_attempts_per_req", "attempts"},
	{"mapper.ii_wasted_ratio", "fraction"},
	{"mapper.portfolio.chain0_win_ratio", "fraction"},
	{"mapper.portfolio.optimal_ratio", "fraction"},
	{"mapper.verify_ms_per_req", "ms"},
	{"mapper.runs", "count"},
	{"registry.labels_ms_per_req", "ms"},
	{"engine.degraded_ratio", "fraction"},
	{"service.decode_us_per_req", "us"},
	{"service.key_us_per_req", "us"},
	{"service.encode_ms_per_req", "ms"},
	{"service.rejected_ratio", "fraction"},
	{"service.unattributed_us_per_req", "us"},
	{"dfg.build_us_per_req", "us"},
	{"dfg.readjson_us_per_dfg", "us"},
	{"cache.get_us_per_req", "us"},
	{"cache.l1_hit_ratio", "fraction"},
	{"store.get_us_per_call", "us"},
	{"store.hit_ratio", "fraction"},
	{"store.put_ms_per_req", "ms"},
	{"attr.generate_us_per_dfg", "us"},
	{"gnn.predict_batch_us_per_dfg", "us"},
	{"gnn.predict_loop_us_per_dfg", "us"},
	{"gnn.train_s", "s"},
	{"gnn.train_epochs", "count"},
	{"labels.dfgs_per_req", "count"},
	{"labels.nodes_per_req", "count"},
	{"traingen.generate_s", "s"},
	{"traingen.admitted_ratio", "fraction"},
	{"setup.warm_s", "s"},
	{"setup.warm_maps", "count"},
	{"process.cpu_ms_per_req", "ms"},
	{"process.allocs_per_req", "count"},
	{"process.gc_cycles", "count"},
	{"trace.overhead_pct", "%"},
}

// metric is one value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: compile, serve-hot or labels")
	seed := fs.Int64("seed", defaultSeed, fmt.Sprintf("workload seed (held-out seed for claims: %d)", heldOutSeed))
	seconds := fs.Int("seconds", 15, "nominal measured seconds; sets the request-list length")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics instead of end-to-end ones")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *workload != wCompile && *workload != wServeHot && *workload != wLabels:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s, %s, %s)\n", *workload, wCompile, wServeHot, wLabels)
		return 2
	case *seconds < 1:
		fmt.Fprintln(stderr, "perfbench: --seconds must be at least 1")
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	opts := options{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		dir:      filepath.Join(".bench_build", "work"),
		reg:      registryConfig(),
	}
	res, prov, err := execute(opts, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"provenance": prov}); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// execute runs one workload and assembles its result line and provenance.
func execute(opts options, log io.Writer) (*result, map[string]any, error) {
	if err := os.MkdirAll(opts.dir, 0o755); err != nil {
		return nil, nil, err
	}
	dir, err := os.MkdirTemp(opts.dir, "run-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)

	b, err := newBench(opts, dir, log)
	if err != nil {
		return nil, nil, err
	}
	defer b.close()
	switch opts.workload {
	case wCompile:
		err = b.compile()
	case wServeHot:
		err = b.serveHot()
	case wLabels:
		err = b.labels()
	}
	if err != nil {
		return nil, nil, err
	}
	if opts.trace {
		if err := b.writeTrace(); err != nil {
			return nil, nil, err
		}
	}

	defs := endToEnd
	if opts.trace {
		defs = perLayer
	}
	res := &result{Attempted: b.attempted, Failed: b.failed, Metrics: make(map[string]metric, len(defs))}
	for _, d := range defs {
		v, ok := b.values[d.name]
		if !ok {
			return nil, nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	res.Correct = b.failed == 0
	if res.Attempted < 1 {
		return nil, nil, errors.New("no request was attempted")
	}
	for _, p := range b.problems {
		fmt.Fprintln(log, "perfbench: check failed:", p)
	}

	b.prov["workload"] = opts.workload
	b.prov["seed"] = opts.seed
	b.prov["held_out_seed"] = heldOutSeed
	b.prov["trace"] = opts.trace
	b.prov["commit"] = commit()
	b.prov["go_version"] = runtime.Version()
	b.prov["gomaxprocs"] = runtime.GOMAXPROCS(0)
	b.prov["nproc"] = runtime.NumCPU()
	b.prov["cpu_model"] = cpuModel()
	b.prov["arch"] = archName
	return res, b.prov, nil
}
