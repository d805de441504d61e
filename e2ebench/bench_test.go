package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"qaoa2"
	"qaoa2/internal/graph"
	"qaoa2/internal/maxcut"
	"qaoa2/internal/rng"
	"qaoa2/internal/solver"
)

// TestDeclaredMetricsMatchBenchmarkJSON keeps the metric and workload
// lists the command emits equal to the ones BENCHMARK.json declares.
func TestDeclaredMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(decl.EndToEnd) != fmt.Sprint(endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json\n%v\ndiffers from the command's\n%v", decl.EndToEnd, endToEnd)
	}
	if fmt.Sprint(decl.PerLayer) != fmt.Sprint(perLayer) {
		t.Errorf("per_layer in BENCHMARK.json\n%v\ndiffers from the command's\n%v", decl.PerLayer, perLayer)
	}
	var declared, built []string
	for _, w := range decl.Workloads {
		declared = append(declared, w.Name)
	}
	for name := range workloads(false) {
		built = append(built, name)
	}
	sort.Strings(declared)
	sort.Strings(built)
	if fmt.Sprint(declared) != fmt.Sprint(built) {
		t.Errorf("BENCHMARK.json declares workloads %v, the command runs %v", declared, built)
	}
}

// TestSmokeEveryWorkload runs every workload at a tiny size, untraced
// and traced, and checks that the report names every declared metric
// with its unit and direction and that the gate passed.
func TestSmokeEveryWorkload(t *testing.T) {
	for name, w := range workloads(true) {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", name, trace), func(t *testing.T) {
				cfg := config{workload: name, seed: 3, seconds: 200 * time.Millisecond, trace: trace, outDir: t.TempDir()}
				res, out, err := benchmark(cfg, w)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d: %v", res.Correct, res.Attempted, res.Failed, out.errs)
				}
				var buf bytes.Buffer
				if err := report(&buf, cfg, res, out); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
				var last result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
					t.Fatalf("last line is not the JSON result: %v", err)
				}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				if len(last.Metrics) != len(defs) {
					t.Errorf("result has %d metrics, want %d", len(last.Metrics), len(defs))
				}
				for _, d := range defs {
					if m, ok := last.Metrics[d.Name]; !ok || m.Unit != d.Unit {
						t.Errorf("metric %s: got %+v, want unit %s", d.Name, m, d.Unit)
					}
					want := fmt.Sprintf(" %s (%s is better)", d.Unit, d.Better)
					found := false
					for _, l := range lines {
						f := strings.Fields(l)
						if len(f) > 0 && f[0] == d.Name && strings.Contains(strings.Join(strings.Fields(l), " "), strings.TrimSpace(want)) {
							found = true
						}
					}
					if !found {
						t.Errorf("no report line for %s with %q", d.Name, want)
					}
				}
			})
		}
	}
}

// flipOne returns its inner solver's cut with node 0's spin flipped but
// the value unchanged: a wrong answer the gate must catch.
type flipOne struct{ solver.Solver }

func (f flipOne) SolveSub(g *graph.Graph, r *rng.Rand) (maxcut.Cut, error) {
	c, err := f.Solver.SolveSub(g, r)
	if err != nil {
		return c, err
	}
	c.Spins = append([]int8(nil), c.Spins...)
	c.Spins[0] = -c.Spins[0]
	return c, nil
}

func wrapFlip(s solver.Solver) solver.Solver { return flipOne{s} }

// TestGateCatchesFlippedSpin: a sub-graph solver that flips one spin
// fails the gate, whether the instance fits the device (the cut's value
// no longer re-scores) or is partitioned (the sub-graph values no longer
// sum to the intra cut), and the run reports it as failed.
func TestGateCatchesFlippedSpin(t *testing.T) {
	small := graph.ErdosRenyi(8, 0.5, graph.Unweighted, rng.New(5))
	res, err := qaoa2.Solve(small, qaoa2.Options{MaxQubits: 8, Solver: wrapFlip(qaoa2.QAOASolver{}), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkCut(small, claimOf(res)); err == nil {
		t.Error("gate passed a direct solve with a flipped spin")
	}

	w := workloads(true)["er-sparse-2000"].(batchWorkload)
	w.wrapLeaf = wrapFlip
	res2, _, err := benchmark(config{workload: "er-sparse-2000", seed: 3, seconds: time.Millisecond, outDir: t.TempDir()}, w)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Correct || res2.Failed == 0 || res2.Metrics["ok_frac"].Value == 1 {
		t.Errorf("partitioned solves with flipped leaf spins passed: correct=%v failed=%d", res2.Correct, res2.Failed)
	}
}
