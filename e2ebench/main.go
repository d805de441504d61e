// Command e2ebench is the repository's end-to-end benchmark: whole QAOA²
// solves (instance in, cut out) through the qaoa2.Solve facade, and
// whole served jobs (submit to done) through serve.Client against an
// in-process serve.Server. Every returned cut passes a correctness gate.
//
//	bash e2ebench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it prints the end-to-end metrics, measured with
// tracing off. With --trace 1 it wraps each layer's public entry point
// (partition.SizeCapped, Backend.Prepare, Ansatz.Evaluate,
// Solver.SolveSub, qaoa2.Solve, the served job), interleaves traced and
// untraced solves, and prints the per-layer breakdown and the tracing
// overhead; the spans go to <out>/trace-<workload>.json. The last line
// of standard output is the JSON result; the exit code is 1 when any
// output failed the correctness gate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"qaoa2/internal/graph"
	"qaoa2/internal/rng"
)

type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	outDir   string
}

// workload is one named input set and how to drive it.
type workload interface {
	run(cfg config, out *runOutput) error
}

// setupRounds is how often a run repeats its set-up; setup_s is the
// median. One warm-up solve of a full-size instance varies by ±15% from
// round to round on a shared machine, and the first rounds of a fresh
// process run slower than later ones; nine rounds keep the median of a
// run within a few percent of the next run's.
const setupRounds = 9

// workloads returns the benchmark's workloads at full size, or at a
// tiny size for the smoke tests.
func workloads(tiny bool) map[string]workload {
	if tiny {
		return map[string]workload{
			"er-sparse-2000": batchWorkload{maxQubits: 8, count: 2, instance: erInstance(60, 6)},
			"planted-q16":    batchWorkload{maxQubits: 6, count: 2, instance: plantedInstance(4, 6)},
			"fig4-dense-500": batchWorkload{maxQubits: 8, count: 2, solver: "best", merge: "gw", instance: erInstance(40, 4)},
			"serve-mixed":    serveWorkload{nodes: 30, degree: 4, maxQubits: 8, window: 4, retain: 16, scored: 3},
		}
	}
	return map[string]workload{
		"er-sparse-2000": batchWorkload{maxQubits: 16, count: 32, instance: erInstance(2000, 10)},
		"planted-q16":    batchWorkload{maxQubits: 16, count: 56, instance: plantedInstance(16, 16)},
		"fig4-dense-500": batchWorkload{maxQubits: 16, count: 30, solver: "best", merge: "gw", instance: erInstance(500, 49.9)},
		"serve-mixed":    serveWorkload{nodes: 200, degree: 8, maxQubits: 12, window: 32, retain: 128, scored: 48},
	}
}

// erInstance generates unweighted G(n, degree/(n-1)) graphs.
func erInstance(n int, degree float64) func(seed uint64, i int) *graph.Graph {
	return func(seed uint64, i int) *graph.Graph {
		return graph.ErdosRenyi(n, degree/float64(n-1), graph.Unweighted, rng.New(seed).Split(uint64(i)))
	}
}

// plantedInstance generates graphs of k planted communities of the
// given size (p_in 0.5, p_out 0.005).
func plantedInstance(k, size int) func(seed uint64, i int) *graph.Graph {
	return func(seed uint64, i int) *graph.Graph {
		g, _ := graph.PlantedCommunities(k, size, 0.5, 0.005, graph.Unweighted, rng.New(seed).Split(uint64(i)))
		return g
	}
}

// warmSeed generates the warm-up instance every set-up solves, the same
// for every --seed so set-up does the same work on every run.
const warmSeed = 0x3a11

// runOutput collects what one run measured.
type runOutput struct {
	attempted, failed int
	errs              []string
	values            map[string]float64
	notes             []string
	// Traced runs only.
	spans []span
	hist  map[int]int
}

func newRunOutput() *runOutput { return &runOutput{values: map[string]float64{}} }

func (o *runOutput) fail(err error) {
	o.failed++
	if len(o.errs) < 10 {
		o.errs = append(o.errs, err.Error())
	}
}

func (o *runOutput) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// timeSetup runs set-up setupRounds times and records the median as
// setup_s. Each round must leave the previous round's state released.
func (o *runOutput) timeSetup(setup func() error) error {
	var times []float64
	for i := 0; i < setupRounds; i++ {
		start := time.Now()
		if err := setup(); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	o.values["setup_s"] = median(times)
	return nil
}

// setTimings records a latency sample's median and tail under prefix,
// and its rate over wall seconds under rate.
func (o *runOutput) setTimings(prefix, rate string, times []float64, wall float64) {
	t := summarize(times)
	o.values[prefix+"_p50"] = t.p50
	o.values[prefix+"_tail"] = t.tail
	o.values[rate] = ratio(float64(t.n), wall)
	o.note("%s_tail is p%.1f of %d samples", prefix, t.tailPct, t.n)
}

// setLayers derives the per-layer metrics from the traced solves. The
// serve-layer metrics stay 0 on workloads that do not serve.
func (o *runOutput) setLayers(tr *tracer, infos []solveInfo, overhead float64) error {
	if len(infos) == 0 {
		return fmt.Errorf("no traced solve completed")
	}
	keep := map[int]bool{}
	for _, info := range infos {
		keep[info.solve] = true
	}
	for _, s := range tr.snapshot() {
		if keep[s.Solve] {
			o.spans = append(o.spans, s)
		}
	}
	m, hist := layerBreakdown(o.spans, infos)
	for k, v := range m {
		o.values[k] = v
	}
	for _, k := range []string{"serve.submit_s_p50", "serve.first_event_s_p50", "serve.cache_hit_frac", "serve.rejected", "runtime.events_per_job"} {
		if _, ok := o.values[k]; !ok {
			o.values[k] = 0
		}
	}
	o.values["trace.overhead_s"] = overhead
	o.hist = hist
	o.note("gw share of leaf busy time %.3g", ratio(m["gw.busy_s"], m["solver.leaf_busy_s"]))
	o.note("leaf sizes over %d traced solves (nodes:leaves) %s", len(infos), formatHist(hist))
	return nil
}

func formatHist(h map[int]int) string {
	sizes := make([]int, 0, len(h))
	for n := range h {
		sizes = append(sizes, n)
	}
	sort.Ints(sizes)
	parts := make([]string, len(sizes))
	for i, n := range sizes {
		parts[i] = fmt.Sprintf("%d:%d", n, h[n])
	}
	return strings.Join(parts, " ")
}

// benchmark runs one workload and returns its result; the error reports
// a run that could not produce one.
func benchmark(cfg config, w workload) (result, *runOutput, error) {
	out := newRunOutput()
	if err := w.run(cfg, out); err != nil {
		return result{}, out, err
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	} else {
		out.values["peak_rss_mb"] = peakRSSMB()
		out.values["ok_frac"] = ratio(float64(out.attempted-out.failed), float64(out.attempted))
	}
	metrics, err := fill(defs, out.values)
	if err != nil {
		return result{}, out, err
	}
	return result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: metrics}, out, nil
}

// report prints every metric by name with its value, unit and
// direction, then the notes, then the JSON result as the last line.
func report(w io.Writer, cfg config, res result, out *runOutput) error {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	fmt.Fprintf(w, "workload %s seed %d: %d attempted, %d failed\n", cfg.workload, cfg.seed, res.Attempted, res.Failed)
	for _, d := range defs {
		fmt.Fprintf(w, "  %-28s %14.6g %-6s (%s is better)\n", d.Name, res.Metrics[d.Name].Value, d.Unit, d.Better)
	}
	for _, n := range out.notes {
		fmt.Fprintln(w, "  note:", n)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// writeTrace writes the traced run's spans, leaf-size histogram and
// machine block.
func writeTrace(cfg config, m machine, out *runOutput) error {
	b, err := json.Marshal(struct {
		Workload  string      `json:"workload"`
		Seed      uint64      `json:"seed"`
		Machine   machine     `json:"machine"`
		LeafSizes map[int]int `json:"leaf_sizes"`
		Spans     []span      `json:"spans"`
	}{cfg.workload, cfg.seed, m, out.hist, out.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.outDir, "trace-"+cfg.workload+".json"), b, 0o644)
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	var (
		cfg     config
		seed    = flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
		seconds = flag.Float64("seconds", 20, "how long to measure")
		trace   = flag.Int("trace", 0, "1 runs the traced per-layer breakdown")
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload name")
	flag.StringVar(&cfg.outDir, "out", ".bench_build", "directory for traces and serve state")
	flag.Parse()
	cfg.seed, cfg.seconds, cfg.trace = *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1
	ws := workloads(false)
	w, ok := ws[cfg.workload]
	if !ok || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		names := make([]string, 0, len(ws))
		for n := range ws {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "usage: e2ebench --workload %s --seed N --seconds S --trace 0|1\n", strings.Join(names, "|"))
		return 2
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	m := currentMachine()
	mb, _ := json.Marshal(m) // plain struct of strings and ints: cannot fail
	fmt.Printf("machine %s\n", mb)

	res, out, err := benchmark(cfg, w)
	for _, e := range out.errs {
		fmt.Fprintln(os.Stderr, "e2ebench: correctness:", e)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	if cfg.trace {
		if err := writeTrace(cfg, m, out); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench: writing trace:", err)
			return 1
		}
	}
	if err := report(os.Stdout, cfg, res, out); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}
