package qaoa2

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"runtime"
	"testing"

	"qaoa2/internal/graph"
	"qaoa2/internal/rng"
	rt "qaoa2/internal/runtime"
)

// The golden results below were recorded from the synchronous QAOA²
// recursion that preceded the task-graph runtime as the only executor.
// The runtime must reproduce them exactly — spins, values, merge
// levels, the intra/cross split and every first-level sub-report — at
// every parallelism.

// goldenCase is one pinned solve.
type goldenCase struct {
	name string
	g    *graph.Graph
	opts Options
}

// goldenCases covers every branch of the divide-and-conquer: a
// multi-level merge, an explicit partition, an edgeless merge graph, a
// stalled all-singleton contraction, best-of leaves and a direct solve.
func goldenCases() []goldenCase {
	bestOf := BestOfSolver{Solvers: []SubSolver{GWSolver{}, RandomSolver{Trials: 1}, OneExchangeSolver{}}}
	explicit := graph.ErdosRenyi(36, 0.2, graph.UniformWeights, rng.New(41))
	parts, _ := fixedPartition(explicit, 6)
	stalled := graph.ErdosRenyi(10, 0.4, graph.Unweighted, rng.New(2))
	singletons := make([][]int, stalled.N())
	for v := range singletons {
		singletons[v] = []int{v}
	}
	return []goldenCase{
		{"multi-level", graph.ErdosRenyi(60, 0.15, graph.Unweighted, rng.New(7)),
			Options{MaxQubits: 4, Solver: cheapAnneal(), MergeSolver: cheapAnneal(), Seed: 11}},
		{"explicit-partition", explicit,
			Options{MaxQubits: 6, Partition: parts, Solver: BestOfSolver{Solvers: attributionMembers()},
				MergeSolver: OneExchangeSolver{}, Seed: 77}},
		{"edgeless-merge", isolatedPlusClique(12, 4),
			Options{MaxQubits: 4, Solver: cheapAnneal(), Seed: 3}},
		{"stalled-singletons", stalled,
			Options{MaxQubits: 4, Partition: singletons, Solver: ExactSolver{}, Seed: 9}},
		{"best-of-leaves", graph.ErdosRenyi(40, 0.2, graph.Unweighted, rng.New(3)),
			Options{MaxQubits: 8, Solver: bestOf, MergeSolver: ExactSolver{}, Seed: 5}},
		{"direct", graph.ErdosRenyi(10, 0.3, graph.UniformWeights, rng.New(1)),
			Options{MaxQubits: 16, Solver: bestOf, Seed: 1}},
	}
}

// goldenReport is a SubReport minus wall-time telemetry.
type goldenReport struct {
	Nodes, Edges int
	Value        float64
	Solver       string
	Attempts     []string // "solver=value" per attempt
}

// golden is the identity of one Result.
type golden struct {
	SpinsHash          uint64 // FNV-1a of the +/- spin encoding
	Value              float64
	Levels, SubGraphs  int
	IntraCut, CrossCut float64
	Reports            []goldenReport
}

func goldenOf(res *Result) golden {
	h := fnv.New64a()
	h.Write([]byte(rt.EncodeSpins(res.Cut.Spins)))
	out := golden{SpinsHash: h.Sum64(), Value: res.Cut.Value, Levels: res.Levels,
		SubGraphs: res.SubGraphs, IntraCut: res.IntraCut, CrossCut: res.CrossCut}
	for _, r := range res.SubReports {
		gr := goldenReport{Nodes: r.Nodes, Edges: r.Edges, Value: r.Value, Solver: r.Solver}
		for _, a := range r.Attempts {
			gr.Attempts = append(gr.Attempts, fmt.Sprintf("%s=%v%s", a.Solver, a.Value, a.Err))
		}
		out.Reports = append(out.Reports, gr)
	}
	return out
}

// goldenResults maps each goldenCases entry to its recorded identity.
var goldenResults = map[string]golden{
	"multi-level": {SpinsHash: 0xc47cd61e678b42d, Value: 182, Levels: 3, SubGraphs: 18, IntraCut: 47, CrossCut: 135,
		Reports: []goldenReport{
			{2, 1, 1, "anneal", nil}, {4, 4, 4, "anneal", nil}, {3, 2, 2, "anneal", nil},
			{4, 5, 4, "anneal", nil}, {4, 4, 3, "anneal", nil}, {3, 2, 2, "anneal", nil},
			{2, 1, 1, "anneal", nil}, {3, 3, 2, "anneal", nil}, {3, 3, 2, "anneal", nil},
			{4, 5, 4, "anneal", nil}, {3, 3, 2, "anneal", nil}, {3, 3, 2, "anneal", nil},
			{4, 4, 4, "anneal", nil}, {4, 4, 3, "anneal", nil}, {4, 4, 3, "anneal", nil},
			{4, 5, 4, "anneal", nil}, {3, 3, 2, "anneal", nil}, {3, 2, 2, "anneal", nil},
		}},
	"explicit-partition": {SpinsHash: 0x4ad47348d12a4ef, Value: 40.46584329533681, Levels: 1, SubGraphs: 6, IntraCut: 9.568279906548577, CrossCut: 30.897563388788235,
		Reports: []goldenReport{
			{6, 4, 2.3569269873159486, "exact", []string{"random=0.14515298867328064", "one-exchange=2.356926987315948", "exact=2.3569269873159486"}},
			{6, 5, 3.156957750756769, "exact", []string{"random=0.6972910994163266", "one-exchange=2.3543337311393393", "exact=3.156957750756769"}},
			{6, 3, 0.8380942748573533, "one-exchange", []string{"random=0.6532626109930075", "one-exchange=0.8380942748573533", "exact=0.8380942748573533"}},
			{6, 1, 0.831687627554362, "one-exchange", []string{"random=0", "one-exchange=0.831687627554362", "exact=0.831687627554362"}},
			{6, 3, 1.1609790408460463, "one-exchange", []string{"random=0.9774959955096065", "one-exchange=1.1609790408460463", "exact=1.1609790408460463"}},
			{6, 3, 1.2236342252180974, "exact", []string{"random=0", "one-exchange=1.2236342252180972", "exact=1.2236342252180974"}},
		}},
	"edgeless-merge": {SpinsHash: 0x62984309aed84ad5, Value: 4, Levels: 1, SubGraphs: 9, IntraCut: 4, CrossCut: 0,
		Reports: []goldenReport{
			{4, 6, 4, "anneal", nil}, {1, 0, 0, "anneal", nil}, {1, 0, 0, "anneal", nil},
			{1, 0, 0, "anneal", nil}, {1, 0, 0, "anneal", nil}, {1, 0, 0, "anneal", nil},
			{1, 0, 0, "anneal", nil}, {1, 0, 0, "anneal", nil}, {1, 0, 0, "anneal", nil},
		}},
	"stalled-singletons": {SpinsHash: 0xf4f1c0f41eeb5e0f, Value: 15, Levels: 1, SubGraphs: 10, IntraCut: 0, CrossCut: 15,
		Reports: []goldenReport{
			{1, 0, 0, "exact", nil}, {1, 0, 0, "exact", nil}, {1, 0, 0, "exact", nil},
			{1, 0, 0, "exact", nil}, {1, 0, 0, "exact", nil}, {1, 0, 0, "exact", nil},
			{1, 0, 0, "exact", nil}, {1, 0, 0, "exact", nil}, {1, 0, 0, "exact", nil},
			{1, 0, 0, "exact", nil},
		}},
	"best-of-leaves": {SpinsHash: 0x68467e0ed6ccfb69, Value: 107, Levels: 1, SubGraphs: 8, IntraCut: 43, CrossCut: 64,
		Reports: []goldenReport{
			{7, 10, 9, "gw", []string{"gw=9", "random=3", "one-exchange=9"}},
			{4, 5, 4, "gw", []string{"gw=4", "random=3", "one-exchange=4"}},
			{3, 2, 2, "gw", []string{"gw=2", "random=1", "one-exchange=2"}},
			{8, 12, 9, "gw", []string{"gw=9", "random=6", "one-exchange=9"}},
			{6, 9, 7, "gw", []string{"gw=7", "random=0", "one-exchange=6"}},
			{3, 3, 2, "gw", []string{"gw=2", "random=2", "one-exchange=2"}},
			{6, 11, 8, "gw", []string{"gw=8", "random=3", "one-exchange=8"}},
			{3, 3, 2, "gw", []string{"gw=2", "random=2", "one-exchange=2"}},
		}},
	"direct": {SpinsHash: 0x77ef9967255c8929, Value: 2.7956522851392958, Levels: 0, SubGraphs: 1, IntraCut: 2.7956522851392958, CrossCut: 0,
		Reports: []goldenReport{
			{10, 8, 2.7956522851392958, "gw", []string{"gw=2.7956522851392958", "random=1.0355509810839054", "one-exchange=2.776795476589391"}},
		}},
}

func TestGoldenResultsAcrossParallelism(t *testing.T) {
	for _, tc := range goldenCases() {
		want, ok := goldenResults[tc.name]
		if !ok {
			t.Fatalf("%s: no golden result recorded", tc.name)
		}
		for _, par := range []int{1, 4, runtime.GOMAXPROCS(0)} {
			opts := tc.opts
			opts.Parallelism = par
			res, err := Solve(tc.g, opts)
			if err != nil {
				t.Fatalf("%s par=%d: %v", tc.name, par, err)
			}
			checkInvariants(t, tc.name, tc.g, res, tc.opts.MaxQubits)
			if got := goldenOf(res); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s par=%d diverged from the recorded result:\nwant %+v\ngot  %+v",
					tc.name, par, want, got)
			}
		}
	}
}
