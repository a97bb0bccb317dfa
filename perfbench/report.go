package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
)

// metricDef names one reported metric and its unit. The two tables
// below are the catalogue BENCHMARK.json declares; TestCatalogMatches
// keeps them in step.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees, reported by the
// untraced run of every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"frames_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_p99_ms", "ms"},
	{"cpu_us_per_frame", "us"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's per-layer metrics. A workload reports
// 0 for a layer it does not exercise (README.md has the map).
var perLayer = []metricDef{
	// bench: input generation
	{"bench.corpus_ms", "ms"},
	// dnn: compiled plans and kernels (inference) and the trainer
	{"dnn.load_compile_ms", "ms"},
	{"dnn.calls", "count"},
	{"dnn.busy_s", "s"},
	{"dnn.self_s", "s"},
	{"dnn.ns_per_frame", "ns"},
	{"dnn.flops_per_frame", "flop"},
	{"dnn.bytes_per_frame", "B"},
	{"dnn.gflops", "Gflop/s"},
	{"dnn.train_us_per_sample", "us"},
	// wfst + decoder: graph compile and Viterbi search
	{"wfst.compile_ms", "ms"},
	{"decoder.busy_s", "s"},
	{"decoder.self_s", "s"},
	{"decoder.ns_per_frame", "ns"},
	{"decoder.finish_us", "us"},
	{"decoder.arcs_per_frame", "count"},
	{"decoder.hyps_per_frame", "count"},
	{"decoder.beam_yield", "ratio"},
	{"decoder.mean_active", "count"},
	{"decoder.max_active", "count"},
	{"decoder.store_overflows", "count"},
	// serve: wire, admission, batcher (client side and /metrics)
	{"serve.start_ms", "ms"},
	{"serve.dial_us_p50", "us"},
	{"serve.push_ns_per_frame", "ns"},
	{"serve.final_p50_ms", "ms"},
	{"serve.final_p99_ms", "ms"},
	{"serve.client_cpu_us_per_frame", "us"},
	{"serve.server_read_bytes_per_frame", "B"},
	{"serve.server_read_syscalls_per_frame", "count"},
	{"serve.rejects", "count"},
	{"serve.retries", "count"},
	{"serve.batch_size_mean", "frames"},
	{"serve.queue_wait_us_mean", "us"},
	{"serve.flush_full_share", "ratio"},
	{"serve.server_dnn_share", "ratio"},
	{"serve.server_search_share", "ratio"},
	// pruning: calibrate and prune (the retrain is dnn.train_us_per_sample)
	{"pruning.calibrate_ms", "ms"},
	{"pruning.prune_ms", "ms"},
	// the trace itself
	{"trace.op_self_s", "s"},
	{"trace.child_coverage", "ratio"},
	{"trace.frames_per_s_untraced", "1/s"},
	{"trace.frames_per_s_traced", "1/s"},
	{"trace.overhead_share", "ratio"},
}

// report accumulates one run's outcome.
type report struct {
	values    map[string]float64 // catalogued metrics
	extra     map[string]float64 // uncatalogued figures printed for context
	attempted int64
	failed    int64
	failures  []string
}

func newReport() *report {
	return &report{values: map[string]float64{}, extra: map[string]float64{}}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

// fail records a failed output check covering n operations.
func (r *report) fail(n int64, format string, args ...any) {
	r.failed += n
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// zeroLayers reports 0 for every per-layer metric the workload does
// not measure, so each traced run prints the whole catalogue.
func (r *report) zeroLayers() {
	for _, m := range perLayer {
		if _, ok := r.values[m.name]; !ok {
			r.values[m.name] = 0
		}
	}
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// median returns the median of xs (the mean of the middle two for an
// even count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// nearestRank returns the p-quantile (0 < p <= 1) of xs by the
// nearest-rank rule: every value it reports was observed.
func nearestRank(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

// sessionCount caps the requested concurrency at the CPU count: the
// load comes from one process with at most nproc sessions in flight.
func sessionCount(want int) int {
	if n := runtime.NumCPU(); want > n {
		want = n
	}
	if want < 1 {
		want = 1
	}
	return want
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
