package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
)

// smokeOptions runs a workload on a tiny list with a small training budget.
func smokeOptions(t *testing.T, workload string, trace bool) options {
	reg := registryConfig()
	reg.TrainGen.NumDFGs = 4
	reg.TrainCfg.Epochs = 2
	return options{
		workload: workload,
		seed:     defaultSeed,
		seconds:  1,
		trace:    trace,
		dir:      t.TempDir(),
		reg:      reg,
		warmup:   2,
		measured: 6,
	}
}

func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model and maps kernels")
	}
	for _, w := range []string{wCompile, wServeHot, wLabels} {
		for _, trace := range []bool{false, true} {
			res, prov, err := execute(smokeOptions(t, w, trace), io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 8 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, trace, len(res.Metrics), len(defs))
			}
			if prov["model_sha256"] == "" || prov["samples"] != 6 {
				t.Errorf("%s trace=%v: provenance %v", w, trace, prov)
			}
			if !trace {
				for _, name := range []string{"throughput_rps", "latency_p50_ms", "setup_s", "peak_rss_mb", "mapped_ratio"} {
					if res.Metrics[name].Value <= 0 {
						t.Errorf("%s: %s = %g", w, name, res.Metrics[name].Value)
					}
				}
				continue
			}
			if w != wCompile && res.Metrics["mapper.runs"].Value != 0 {
				t.Errorf("%s ran the mapper %g times", w, res.Metrics["mapper.runs"].Value)
			}
			if prov["replay_mismatches"] != 0 {
				t.Errorf("%s: %v replayed responses differ from the server's", w, prov["replay_mismatches"])
			}
		}
	}
}

// TestBenchmarkJSONListsTheProgramsMetrics keeps BENCHMARK.json and the
// metric tables in step.
func TestBenchmarkJSONListsTheProgramsMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var doc struct {
		Workloads []entry
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []entry, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d, the program reports %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), program %s (%s)", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
	var names []metricDef
	for _, w := range []string{wCompile, wServeHot, wLabels} {
		names = append(names, metricDef{w, ""})
	}
	same("workloads", doc.Workloads, names)
}
