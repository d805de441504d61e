package qaoa2

import (
	"fmt"
	"math"
	"testing"

	"qaoa2/internal/graph"
	"qaoa2/internal/maxcut"
	"qaoa2/internal/rng"
)

// The QAOA² divide-and-conquer invariants, property-tested across
// random graph ensembles, seeds and qubit budgets:
//
//  1. IntraCut + CrossCut == Cut.Value (1e-9)
//  2. every spin is ±1 and every node carries one (disjoint cover)
//  3. Cut.Value equals the maxcut recomputation from the spins
//  4. first-level sub-reports respect the qubit budget
//  5. the Result does not depend on the worker-pool size
//
// golden_test.go pins the exact results of the pre-runtime recursion.

// checkInvariants asserts 1–4 on one solve result.
func checkInvariants(t *testing.T, label string, g *graph.Graph, res *Result, maxQubits int) {
	t.Helper()
	if len(res.Cut.Spins) != g.N() {
		t.Fatalf("%s: %d spins for %d nodes", label, len(res.Cut.Spins), g.N())
	}
	for v, s := range res.Cut.Spins {
		if s != 1 && s != -1 {
			t.Fatalf("%s: node %d has spin %d", label, v, s)
		}
	}
	if got := g.CutValue(res.Cut.Spins); math.Abs(got-res.Cut.Value) > 1e-9 {
		t.Fatalf("%s: stored value %v, recomputed %v", label, res.Cut.Value, got)
	}
	if err := res.Cut.Validate(g); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if math.Abs(res.IntraCut+res.CrossCut-res.Cut.Value) > 1e-9 {
		t.Fatalf("%s: intra %v + cross %v != value %v",
			label, res.IntraCut, res.CrossCut, res.Cut.Value)
	}
	if len(res.SubReports) != res.SubGraphs {
		t.Fatalf("%s: %d reports for %d sub-graphs", label, len(res.SubReports), res.SubGraphs)
	}
	total := 0
	for i, sr := range res.SubReports {
		if sr.Nodes <= 0 || sr.Nodes > maxQubits {
			t.Fatalf("%s: sub-report %d has %d nodes, budget %d", label, i, sr.Nodes, maxQubits)
		}
		total += sr.Nodes
	}
	if res.SubGraphs > 1 && total != g.N() {
		t.Fatalf("%s: sub-graph nodes sum to %d, graph has %d", label, total, g.N())
	}
}

// solveChecked solves at Parallelism 1 and at the default parallelism
// and asserts the two results agree exactly (invariant 5) before
// returning one.
func solveChecked(t *testing.T, label string, g *graph.Graph, opts Options) *Result {
	t.Helper()
	opts.Parallelism = 1
	serial, err := Solve(g, opts)
	if err != nil {
		t.Fatalf("%s par=1: %v", label, err)
	}
	opts.Parallelism = 0
	pooled, err := Solve(g, opts)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if serial.Cut.Value != pooled.Cut.Value {
		t.Fatalf("%s: par=1 value %v != pooled value %v", label, serial.Cut.Value, pooled.Cut.Value)
	}
	for v := range serial.Cut.Spins {
		if serial.Cut.Spins[v] != pooled.Cut.Spins[v] {
			t.Fatalf("%s: spin %d depends on parallelism", label, v)
		}
	}
	if serial.Levels != pooled.Levels || serial.SubGraphs != pooled.SubGraphs ||
		serial.IntraCut != pooled.IntraCut || serial.CrossCut != pooled.CrossCut {
		t.Fatalf("%s: metadata differs:\npar=1  %+v\npooled %+v", label, serial, pooled)
	}
	for i := range serial.SubReports {
		if !sameSubReport(serial.SubReports[i], pooled.SubReports[i]) {
			t.Fatalf("%s: sub-report %d differs: %+v vs %+v",
				label, i, serial.SubReports[i], pooled.SubReports[i])
		}
	}
	return serial
}

// sameSubReport compares two sub-reports modulo per-attempt wall
// time, which is telemetry (varies run to run) rather than identity.
func sameSubReport(a, b SubReport) bool {
	if a.Nodes != b.Nodes || a.Edges != b.Edges || a.Value != b.Value ||
		a.Solver != b.Solver || len(a.Attempts) != len(b.Attempts) {
		return false
	}
	for i := range a.Attempts {
		x, y := a.Attempts[i], b.Attempts[i]
		if x.Solver != y.Solver || x.Value != y.Value || x.Err != y.Err {
			return false
		}
	}
	return true
}

func cheapAnneal() SubSolver {
	return AnnealSolver{Opts: maxcut.AnnealOptions{Sweeps: 30}}
}

func TestInvariantsAcrossRandomGraphs(t *testing.T) {
	type family struct {
		name string
		gen  func(n int, r *rng.Rand) *graph.Graph
	}
	families := []family{
		{"erdos-renyi-sparse", func(n int, r *rng.Rand) *graph.Graph {
			return graph.ErdosRenyi(n, 0.12, graph.Unweighted, r)
		}},
		{"erdos-renyi-weighted", func(n int, r *rng.Rand) *graph.Graph {
			return graph.ErdosRenyi(n, 0.3, graph.UniformWeights, r)
		}},
		{"regular3", func(n int, r *rng.Rand) *graph.Graph {
			return graph.Regular3(n&^1, r) // even n
		}},
	}
	for _, fam := range families {
		for _, n := range []int{12, 24, 40} {
			for _, mq := range []int{4, 8, 16} {
				for seed := uint64(0); seed < 2; seed++ {
					label := fmt.Sprintf("%s/n%d/q%d/s%d", fam.name, n, mq, seed)
					g := fam.gen(n, rng.New(seed*31+uint64(n)))
					opts := Options{MaxQubits: mq, Solver: cheapAnneal(),
						MergeSolver: cheapAnneal(), Seed: seed}
					res := solveChecked(t, label, g, opts)
					checkInvariants(t, label, g, res, mq)
				}
			}
		}
	}
}

func TestInvariantsWithExactSolver(t *testing.T) {
	for _, mq := range []int{4, 8} {
		for seed := uint64(0); seed < 3; seed++ {
			label := fmt.Sprintf("exact/q%d/s%d", mq, seed)
			g := graph.ErdosRenyi(26, 0.2, graph.Unweighted, rng.New(seed+100))
			opts := Options{MaxQubits: mq, Solver: ExactSolver{}, Seed: seed}
			res := solveChecked(t, label, g, opts)
			checkInvariants(t, label, g, res, mq)
		}
	}
}

func TestInvariantsWithQAOALeaves(t *testing.T) {
	if testing.Short() {
		t.Skip("QAOA leaves in -short mode")
	}
	g := graph.ErdosRenyi(20, 0.25, graph.Unweighted, rng.New(42))
	opts := Options{MaxQubits: 7, Solver: fastQAOA(), Seed: 42}
	res := solveChecked(t, "qaoa-leaves", g, opts)
	checkInvariants(t, "qaoa-leaves", g, res, 7)
}

func TestInvariantsPathologicalGraphs(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		mq   int
	}{
		{"edgeless", graph.New(20), 4},
		{"single-node", graph.New(1), 4},
		{"complete", graph.Complete(18), 6},
		{"star-hub", starGraph(25), 5},
		{"two-cliques-bridge", twoCliquesBridge(9), 6},
		{"isolated-plus-clique", isolatedPlusClique(12, 4), 4},
	}
	for _, tc := range cases {
		opts := Options{MaxQubits: tc.mq, Solver: cheapAnneal(), Seed: 3}
		res := solveChecked(t, tc.name, tc.g, opts)
		if tc.g.N() > 0 {
			checkInvariants(t, tc.name, tc.g, res, tc.mq)
		}
	}
}

// starGraph is one hub connected to n-1 leaves — the "single giant
// hub" pathology for the partitioner.
func starGraph(n int) *graph.Graph {
	g := graph.New(n)
	for v := 1; v < n; v++ {
		g.MustAddEdge(0, v, 1)
	}
	return g
}

// twoCliquesBridge is two k-cliques joined by one edge.
func twoCliquesBridge(k int) *graph.Graph {
	g := graph.New(2 * k)
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			g.MustAddEdge(i, j, 1)
			g.MustAddEdge(k+i, k+j, 1)
		}
	}
	g.MustAddEdge(0, k, 1)
	return g
}

// isolatedPlusClique is a k-clique plus isolated nodes: the merge
// graph is edgeless while exceeding the cap, exercising the recursion
// guard.
func isolatedPlusClique(n, k int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			g.MustAddEdge(i, j, 1)
		}
	}
	return g
}
