package hpc

import (
	"errors"
	"sort"
	"strings"
	"testing"

	"qaoa2/internal/graph"
	"qaoa2/internal/maxcut"
	"qaoa2/internal/partition"
	"qaoa2/internal/qaoa2"
	"qaoa2/internal/rng"
)

// policySolver applies a Policy inside one plain solver, so
// qaoa2.Solve runs exactly the leaves CoordinatedSolve dispatches.
type policySolver struct{ policy Policy }

func (p policySolver) Name() string { return "policy" }

func (p policySolver) SolveSub(g *graph.Graph, r *rng.Rand) (maxcut.Cut, error) {
	return p.policy(g).SolveSub(g, r)
}

func TestCoordinatedSolveExactLeaves(t *testing.T) {
	r := rng.New(1)
	g := graph.ErdosRenyi(40, 0.15, graph.Unweighted, r)
	res, err := CoordinatedSolve(g, CoordinatedOptions{
		Workers:     3,
		MaxQubits:   8,
		Solver:      qaoa2.ExactSolver{},
		MergeSolver: qaoa2.ExactSolver{},
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Cut.Validate(g); err != nil {
		t.Fatal(err)
	}
	if res.SubGraphs < 2 {
		t.Fatalf("sub-graphs %d", res.SubGraphs)
	}
	if len(res.Assignments) != res.SubGraphs {
		t.Fatalf("assignments %d for %d sub-graphs", len(res.Assignments), res.SubGraphs)
	}
	if res.Comm.Messages == 0 {
		t.Fatal("no messages recorded")
	}
}

// TestCoordinatedMatchesInProcessQAOA2: the coordinator workflow is the
// runtime with leaves dispatched over the comm world, so with
// randomized leaves routed by a density policy it must return
// qaoa2.Solve's cut bit for bit at every worker count, and record the
// policy's choice for every sub-graph.
func TestCoordinatedMatchesInProcessQAOA2(t *testing.T) {
	g := graph.ErdosRenyi(48, 0.2, graph.UniformWeights, rng.New(2))
	const maxQubits, seed = 8, 9
	parts, err := partition.SizeCapped(g, maxQubits)
	if err != nil {
		t.Fatal(err)
	}
	subs := make([]*graph.Graph, len(parts))
	densities := make([]float64, len(parts))
	for i, part := range parts {
		if subs[i], _, err = g.InducedSubgraph(part); err != nil {
			t.Fatal(err)
		}
		densities[i] = subs[i].Density()
	}
	sort.Float64s(densities)
	// The median density splits the sub-graphs between both solvers.
	policy := DensityPolicy(densities[len(densities)/2-1],
		qaoa2.AnnealSolver{Opts: maxcut.AnnealOptions{Sweeps: 30}}, qaoa2.GWSolver{})

	direct, err := qaoa2.Solve(g, qaoa2.Options{
		MaxQubits:   maxQubits,
		Solver:      policySolver{policy},
		MergeSolver: qaoa2.GWSolver{},
		Seed:        seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 5} {
		res, err := CoordinatedSolve(g, CoordinatedOptions{
			Workers:     workers,
			MaxQubits:   maxQubits,
			Policy:      policy,
			MergeSolver: qaoa2.GWSolver{},
			Seed:        seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Cut.Value != direct.Cut.Value || res.Levels != direct.Levels ||
			res.SubGraphs != direct.SubGraphs || res.SubGraphs != len(parts) {
			t.Fatalf("workers=%d: value/levels/sub-graphs %v/%d/%d, qaoa2.Solve %v/%d/%d (%d parts)",
				workers, res.Cut.Value, res.Levels, res.SubGraphs,
				direct.Cut.Value, direct.Levels, direct.SubGraphs, len(parts))
		}
		if err := res.Cut.Validate(g); err != nil {
			t.Fatal(err)
		}
		for v := range direct.Cut.Spins {
			if res.Cut.Spins[v] != direct.Cut.Spins[v] {
				t.Fatalf("workers=%d: spin %d differs from qaoa2.Solve", workers, v)
			}
		}
		if len(res.WorkerBusy) != workers || len(res.Assignments) != len(parts) {
			t.Fatalf("workers=%d: %d busy entries, %d assignments for %d parts",
				workers, len(res.WorkerBusy), len(res.Assignments), len(parts))
		}
		used := map[string]bool{}
		for i, sub := range subs {
			if want := policy(sub).Name(); res.Assignments[i] != want {
				t.Fatalf("workers=%d: sub-graph %d assigned %q, policy chose %q",
					workers, i, res.Assignments[i], want)
			}
			used[res.Assignments[i]] = true
		}
		if len(used) != 2 {
			t.Fatalf("workers=%d: policy routed every sub-graph to %v", workers, used)
		}
		// One task and one result message per sub-graph, plus one stop
		// per worker.
		if want := int64(2*len(parts) + workers); res.Comm.Messages != want {
			t.Fatalf("workers=%d: %d messages, want %d", workers, res.Comm.Messages, want)
		}
	}
}

// failSolver always errors.
type failSolver struct{}

func (failSolver) Name() string { return "fail" }

func (failSolver) SolveSub(*graph.Graph, *rng.Rand) (maxcut.Cut, error) {
	return maxcut.Cut{}, errors.New("device offline")
}

// A failing leaf surfaces as CoordinatedSolve's error after the ranks
// shut down, rather than taking the process down.
func TestCoordinatedLeafErrorReturned(t *testing.T) {
	g := graph.ErdosRenyi(30, 0.2, graph.Unweighted, rng.New(8))
	_, err := CoordinatedSolve(g, CoordinatedOptions{
		Workers:     3,
		MaxQubits:   8,
		Solver:      failSolver{},
		MergeSolver: qaoa2.ExactSolver{},
	})
	if err == nil || !strings.Contains(err.Error(), "device offline") {
		t.Fatalf("err = %v, want the leaf failure", err)
	}
}

func TestCoordinatedSingleWorker(t *testing.T) {
	r := rng.New(3)
	g := graph.ErdosRenyi(30, 0.2, graph.Unweighted, r)
	res, err := CoordinatedSolve(g, CoordinatedOptions{
		Workers:     1,
		MaxQubits:   8,
		Solver:      qaoa2.GWSolver{},
		MergeSolver: qaoa2.ExactSolver{},
		Seed:        3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Cut.Validate(g); err != nil {
		t.Fatal(err)
	}
	if len(res.WorkerBusy) != 1 {
		t.Fatalf("worker busy %v", res.WorkerBusy)
	}
}

func TestCoordinatedDeterministicAcrossWorkerCounts(t *testing.T) {
	// The cut must not depend on how many workers processed the parts
	// (per-part seeding): run with 1 and 5 workers and compare.
	r := rng.New(4)
	g := graph.ErdosRenyi(32, 0.2, graph.Unweighted, r)
	values := map[int]float64{}
	for _, workers := range []int{1, 5} {
		res, err := CoordinatedSolve(g, CoordinatedOptions{
			Workers:     workers,
			MaxQubits:   6,
			Solver:      qaoa2.GWSolver{},
			MergeSolver: qaoa2.GWSolver{},
			Seed:        11,
		})
		if err != nil {
			t.Fatal(err)
		}
		values[workers] = res.Cut.Value
	}
	if values[1] != values[5] {
		t.Fatalf("placement-dependent result: %v", values)
	}
}

func TestDensityPolicyRoutes(t *testing.T) {
	quantum := qaoa2.ExactSolver{}
	classical := qaoa2.GWSolver{}
	policy := DensityPolicy(0.5, quantum, classical)
	sparse := graph.Path(10) // density 9/45 = 0.2
	if got := policy(sparse); got.Name() != "exact" {
		t.Fatalf("sparse routed to %s", got.Name())
	}
	dense := graph.Complete(6) // density 1
	if got := policy(dense); got.Name() != "gw" {
		t.Fatalf("dense routed to %s", got.Name())
	}
}

func TestCoordinatedWithPolicyMixesSolvers(t *testing.T) {
	r := rng.New(5)
	// Planted communities: dense blobs, sparse cross wiring → after
	// partitioning, sub-graphs are dense (blobs) while the policy
	// threshold splits them from any sparse leftovers.
	g, _ := graph.PlantedCommunities(4, 6, 0.9, 0.05, graph.Unweighted, r)
	res, err := CoordinatedSolve(g, CoordinatedOptions{
		Workers:   2,
		MaxQubits: 8,
		Policy: DensityPolicy(0.5,
			qaoa2.ExactSolver{},
			qaoa2.GWSolver{}),
		MergeSolver: qaoa2.ExactSolver{},
		Seed:        5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Cut.Validate(g); err != nil {
		t.Fatal(err)
	}
	// All assignments must be one of the two policy outputs.
	for _, name := range res.Assignments {
		if name != "exact" && name != "gw" {
			t.Fatalf("unexpected solver %q", name)
		}
	}
}

func TestCoordinatedBeatsRandom(t *testing.T) {
	r := rng.New(6)
	g := graph.ErdosRenyi(48, 0.15, graph.Unweighted, r)
	res, err := CoordinatedSolve(g, CoordinatedOptions{
		Workers:     3,
		MaxQubits:   10,
		Solver:      qaoa2.GWSolver{},
		MergeSolver: qaoa2.GWSolver{},
		Seed:        6,
	})
	if err != nil {
		t.Fatal(err)
	}
	random := maxcut.RandomCut(g, 1, rng.New(7))
	if res.Cut.Value <= random.Value {
		t.Fatalf("coordinated %v not above random %v", res.Cut.Value, random.Value)
	}
}
