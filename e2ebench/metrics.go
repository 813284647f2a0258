package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// specFile is BENCHMARK.json, relative to the repository root the
// benchmark runs from. It names every metric the benchmark prints and
// its unit; the program adds only the layer roles below.
const specFile = "BENCHMARK.json"

// metricDef is one metric as BENCHMARK.json lists it.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchSpec is the part of BENCHMARK.json the program reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// layerRole places a per-layer metric.
type layerRole struct {
	// workload is the workload whose traced run measures the metric
	// (every workload's, if empty); traced runs of the other workloads
	// print it as 0.
	workload string
	// moves names the end-to-end metrics, as workload/metric, that a
	// change in this layer metric should move.
	moves string
}

// layerRoles holds a role for every per_layer metric of BENCHMARK.json.
// Times are totals over one suite build (build), or means per job or
// per in-process run of a served spec (serve). trace.overhead_pct is
// each workload's own: traced minus untraced time, as a share of the
// untraced time.
var layerRoles = map[string]layerRole{
	"trace.generate_ms":             {"build", "build/throughput_per_s, every setup_s"},
	"cpu.annotate_ms":               {"build", "build/throughput_per_s"},
	"cpu.llc_events":                {"build", "build/throughput_per_s"},
	"cpu.runcorners_ms":             {"build", "build/throughput_per_s"},
	"atd.warm_ms":                   {"build", "build/throughput_per_s"},
	"atd.replay_ms":                 {"build", "build/throughput_per_s"},
	"atd.accesses":                  {"build", "build/throughput_per_s"},
	"atd.distinct_perm_ratio":       {"build", "build/throughput_per_s"},
	"db.build_w1_ms":                {"build", "build/latency_p50_ms"},
	"db.self_ms":                    {"build", "build/latency_p50_ms"},
	"db.speedup_wn":                 {"build", "build/throughput_per_s"},
	"dbstore.save_ms":               {"build", "serve/setup_s"},
	"dbstore.load_ms":               {"build", "serve/setup_s"},
	"dbstore.bytes":                 {"build", "serve/setup_s"},
	"scenario.compile_us":           {"serve", "serve/throughput_per_s (through server.exec_ms)"},
	"sim.managed_ms":                {"serve", "serve/throughput_per_s, serve/latency_p50_ms (through server.exec_ms)"},
	"sim.idle_ms":                   {"serve", "serve/throughput_per_s, serve/latency_p50_ms (through server.exec_ms)"},
	"rm.invocations":                {"serve", "serve/throughput_per_s (through server.exec_ms)"},
	"sim.intervals":                 {"serve", "serve/throughput_per_s (through server.exec_ms)"},
	"sim.us_per_rm_invocation":      {"serve", "serve/throughput_per_s (through server.exec_ms)"},
	"client.submit_ms":              {"serve", "serve/latency_p50_ms"},
	"server.queue_wait_ms":          {"serve", "serve/latency_p50_ms, serve/throughput_per_s"},
	"server.exec_ms":                {"serve", "serve/latency_p50_ms, serve/throughput_per_s"},
	"client.notify_ms":              {"serve", "serve/latency_p50_ms"},
	"jobstore.append_ms":            {"serve", "serve/latency_tail_ms"},
	"api.request_bytes":             {"serve", "serve/throughput_per_s"},
	"api.response_bytes":            {"serve", "serve/throughput_per_s"},
	"server.http_mean_ms.jobs_post": {"serve", "serve/latency_p50_ms"},
	"server.http_mean_ms.job_get":   {"serve", "serve/latency_p50_ms"},
	"trace.overhead_pct":            {"", ""},
}

// loadSpec reads BENCHMARK.json and checks it against the program: every
// workload has a run and every per-layer metric a role, and back.
func loadSpec(path string) (benchSpec, error) {
	var spec benchSpec
	data, err := os.ReadFile(path)
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return spec, fmt.Errorf("%s: %w", path, err)
	}
	if len(spec.Workloads) != len(workloads) {
		return spec, fmt.Errorf("%s lists %d workloads, the program runs %d", path, len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			return spec, fmt.Errorf("%s: workload %q has no run", path, w.Name)
		}
	}
	if len(spec.PerLayer) != len(layerRoles) {
		return spec, fmt.Errorf("%s lists %d per-layer metrics, the program places %d", path, len(spec.PerLayer), len(layerRoles))
	}
	for _, m := range spec.PerLayer {
		if _, ok := layerRoles[m.Name]; !ok {
			return spec, fmt.Errorf("%s: per-layer metric %q has no role", path, m.Name)
		}
	}
	return spec, nil
}
