package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef declares one reported metric. The lists below are the
// benchmark's contract; BENCHMARK.json at the repository root repeats
// them, and TestDeclaredMetricsMatchBenchmarkJSON keeps the two equal.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd metrics are measured with tracing off (--trace 0). On the
// batch workloads a job is one direct qaoa2.Solve call, so job_* equal
// solve_*; on serve-mixed a solve is a job the server computed (not a
// cache hit) and a job is every submission, both timed submit to done.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"solve_s_p50", "s", "lower"},
	{"solve_s_tail", "s", "lower"},
	{"solves_per_s", "1/s", "higher"},
	{"job_s_p50", "s", "lower"},
	{"job_s_tail", "s", "lower"},
	{"jobs_per_s", "1/s", "higher"},
	{"cut_value", "weight", "higher"},
	{"peak_rss_mb", "MB", "lower"},
	{"ok_frac", "frac", "higher"},
}

// perLayer metrics come from the traced run (--trace 1). Busy times and
// counts are means per executed solve. A layer a workload does not run
// (gw, serve) reads 0 there.
var perLayer = []metricDef{
	{"partition.busy_s", "s", "lower"},
	{"partition.parts", "count", "lower"},
	{"partition.leaf_fill", "frac", "higher"},
	{"partition.cross_weight_frac", "frac", "lower"},
	{"backend.prepare_calls", "count", "lower"},
	{"backend.prepare_busy_s", "s", "lower"},
	{"backend.evaluate_calls", "count", "lower"},
	{"backend.evaluate_busy_s", "s", "lower"},
	{"backend.amp_bytes", "B", "lower"},
	{"qaoa.self_s", "s", "lower"},
	{"qaoa.evals_per_leaf", "count", "lower"},
	{"gw.calls", "count", "lower"},
	{"gw.busy_s", "s", "lower"},
	{"solver.qaoa_win_frac", "frac", "higher"},
	{"solver.leaf_calls", "count", "lower"},
	{"solver.leaf_busy_s", "s", "lower"},
	{"solver.leaf_wait_s", "s", "lower"},
	{"solver.slot_util", "frac", "higher"},
	{"merge.calls", "count", "lower"},
	{"merge.busy_s", "s", "lower"},
	{"merge.levels", "count", "lower"},
	{"qaoa2.self_s", "s", "lower"},
	{"serve.submit_s_p50", "s", "lower"},
	{"serve.first_event_s_p50", "s", "lower"},
	{"serve.cache_hit_frac", "frac", "higher"},
	{"serve.rejected", "count", "lower"},
	{"runtime.events_per_job", "count", "lower"},
	{"trace.overhead_s", "s", "lower"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// fill copies values into a result's metric map for every declared
// metric; a declared metric without a value is a benchmark bug.
func fill(defs []metricDef, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, nil
}

// timing summarizes a latency sample: the median and the highest
// percentile with at least ten samples beyond it.
type timing struct {
	n         int
	p50, tail float64
	tailPct   float64 // percentile the tail value sits at
}

func summarize(xs []float64) timing {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return timing{}
	}
	t := timing{n: n, p50: median(s)}
	// s[k] has n-1-k samples above it; keep at least ten there. With
	// fewer than eleven samples no such percentile exists and the tail
	// falls back to the maximum.
	k := n - 11
	if k < 0 {
		k = n - 1
	}
	t.tail = s[k]
	t.tailPct = 100 * float64(k+1) / float64(n)
	return t
}

// median of a sorted or unsorted sample.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
