package qaoa2

import (
	"fmt"
	"sort"

	"qaoa2/internal/backend"
	"qaoa2/internal/graph"
	"qaoa2/internal/qaoa"
	rt "qaoa2/internal/runtime"
	"qaoa2/internal/solver"
)

// Options configures Solve.
type Options struct {
	// MaxQubits is the sub-graph node cap n — the size of the quantum
	// device (default 16).
	MaxQubits int
	// Solver handles first-level sub-graphs (default QAOA with paper
	// defaults). The paper's run-time decision mechanism plugs in
	// GWSolver, BestOfSolver, or any registry solver here.
	Solver SubSolver
	// MergeSolver handles merge graphs on every recursion level
	// (default: same as Solver). The paper chooses the classical
	// solution for further iterations in the Fig. 4 runs.
	MergeSolver SubSolver
	// SolverSpec names a registry solver (internal/solver) to build
	// when Solver is nil — the declarative, JSON-serializable route the
	// serve daemon and CLIs use. Its canonical form is folded into
	// checkpoint fingerprints, so a resumed run re-binds to the
	// identical solver configuration. Ignored when Solver is set.
	SolverSpec solver.Spec
	// MergeSpec is SolverSpec's counterpart for MergeSolver.
	MergeSpec solver.Spec
	// Backend selects the circuit-execution backend of the DEFAULT QAOA
	// sub- and merge solvers (nil = backend.Default, the fused path).
	// It is ignored when an explicit Solver/MergeSolver is provided —
	// set the backend inside that solver's own options instead (e.g.
	// QAOASolver{Opts: qaoa.Options{Backend: ...}}).
	Backend backend.Backend
	// Restarts forwards qaoa.Options.Restarts to the DEFAULT QAOA sub-
	// and merge solvers: every sub-graph solve runs this many batched
	// multi-start optimizations (default 1). Like Backend, it is
	// ignored when an explicit Solver/MergeSolver is provided.
	//
	// Concurrency compounds: each of up to Parallelism concurrent
	// sub-solves fans out min(Restarts, GOMAXPROCS) batch workers (each
	// pinning a 2^MaxQubits statevector buffer for the sub-solve's
	// lifetime), so with Restarts > 1 consider lowering Parallelism to
	// keep total workers near the core count.
	Restarts int
	// Parallelism bounds concurrent sub-graph solves (default
	// GOMAXPROCS), standing in for the pool of simulated quantum
	// devices / classical nodes of Fig. 2.
	Parallelism int
	// Partition overrides the greedy-modularity division with an
	// explicit node grouping (each part ≤ MaxQubits, disjoint cover of
	// all nodes). The partition-method ablation and custom drivers use
	// this hook; nil selects the paper's partitioner.
	Partition [][]int
	// Seed derives the per-sub-graph deterministic random streams.
	Seed uint64
	// CheckpointPath persists every completed sub-graph and merge
	// solve to this file so an interrupted run resumes without
	// re-solving finished tasks.
	CheckpointPath string
	// OnRuntimeEvent, when set, streams task-completion events
	// (completed sub-solves as they land, merge levels, restores).
	// Calls are serialized.
	OnRuntimeEvent func(rt.Event)
	// Interrupt aborts the solve once closed: no new task starts and
	// Solve returns runtime.ErrInterrupted after in-flight tasks
	// finish. Completed tasks stay in the checkpoint, so a later call
	// resumes.
	Interrupt <-chan struct{}
}

func (o Options) withDefaults() (Options, error) {
	if o.MaxQubits <= 0 {
		o.MaxQubits = 16
	}
	// A spec only describes the solver it built: when an explicit
	// Solver overrides it, drop the spec so checkpoint fingerprints
	// derive from the solver actually running.
	if o.Solver != nil {
		o.SolverSpec = solver.Spec{}
	} else if o.SolverSpec.Name != "" {
		s, err := solver.Build(o.SolverSpec)
		if err != nil {
			return o, fmt.Errorf("qaoa2: %w", err)
		}
		o.Solver = s
	}
	if o.MergeSolver != nil {
		o.MergeSpec = solver.Spec{}
	} else if o.MergeSpec.Name != "" {
		s, err := solver.Build(o.MergeSpec)
		if err != nil {
			return o, fmt.Errorf("qaoa2: merge: %w", err)
		}
		o.MergeSolver = s
	}
	if o.Solver == nil {
		o.Solver = QAOASolver{Opts: qaoa.Options{Backend: o.Backend, Restarts: o.Restarts}}
	}
	if o.MergeSolver == nil {
		o.MergeSolver = o.Solver
		o.MergeSpec = o.SolverSpec
	}
	return o, nil
}

// SubReport records one solved first-level sub-graph: its size, the
// cut value found, and the solver that actually produced the kept cut
// (for composite strategies the WINNING member, with per-attempt
// detail).
type SubReport = rt.SubReport

// Result reports a QAOA² run: the cut, the merge levels used, the
// first-level sub-reports, the intra/cross split of the cut value and
// the task-graph execution stats.
type Result = rt.Result

// Solve runs the QAOA² divide-and-conquer on g. The solve executes on
// the task-graph runtime (internal/runtime): partition, sub-solve,
// merge and stitch tasks on a pool of Parallelism workers.
func Solve(g *graph.Graph, opts Options) (*Result, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	return rt.Solve(g, rt.Options{
		MaxQubits:      opts.MaxQubits,
		Solver:         opts.Solver,
		MergeSolver:    opts.MergeSolver,
		Parallelism:    opts.Parallelism,
		Partition:      opts.Partition,
		Seed:           opts.Seed,
		CheckpointPath: opts.CheckpointPath,
		ConfigTag:      configTag(opts),
		OnEvent:        opts.OnRuntimeEvent,
		Interrupt:      opts.Interrupt,
	})
}

// configTag fingerprints solver configuration that Solver.Name() does
// not reflect, so two configurations sharing a name never share a
// checkpoint. Registry-built solvers (Options.SolverSpec) fingerprint
// by their canonical spec JSON — stable across processes, so the
// serve daemon's resume re-binds to the identical solver. Explicitly
// constructed solvers fall back to their full printed state; anything
// %#v renders unstably (e.g. function-valued fields print as
// addresses) errs toward NOT resuming, never toward resuming wrongly.
func configTag(opts Options) string {
	backendName := "default"
	if opts.Backend != nil {
		backendName = opts.Backend.Name()
	}
	return fmt.Sprintf("backend:%s|restarts:%d|solver:%s|merge:%s",
		backendName, opts.Restarts,
		solverTag(opts.SolverSpec, opts.Solver),
		solverTag(opts.MergeSpec, opts.MergeSolver))
}

// solverTag fingerprints one solver role: canonical spec when the
// solver came from the registry, the solver's own ConfigTag when it
// provides one (solvers holding process-local state — connections,
// breakers — implement it to expose only their result-determining
// configuration, so their checkpoints stay resumable across
// processes), printed state otherwise.
func solverTag(spec solver.Spec, s SubSolver) string {
	if spec.Name != "" {
		return "spec:" + spec.Canonical()
	}
	if ct, ok := s.(interface{ ConfigTag() string }); ok {
		return "tag:" + ct.ConfigTag()
	}
	return fmt.Sprintf("%#v", s)
}

// SummarizeSubReports aggregates first-level sub-reports per solver for
// logs: count and total value, sorted by solver name.
func SummarizeSubReports(reports []SubReport) string {
	type agg struct {
		count int
		value float64
	}
	m := make(map[string]*agg)
	for _, r := range reports {
		a := m[r.Solver]
		if a == nil {
			a = &agg{}
			m[r.Solver] = a
		}
		a.count++
		a.value += r.Value
	}
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	out := ""
	for i, name := range names {
		if i > 0 {
			out += ", "
		}
		out += fmt.Sprintf("%s: %d sub-graphs, Σcut %.3f", name, m[name].count, m[name].value)
	}
	return out
}
