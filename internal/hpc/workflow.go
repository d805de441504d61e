package hpc

import (
	"fmt"
	"time"

	"qaoa2/internal/graph"
	"qaoa2/internal/maxcut"
	"qaoa2/internal/qaoa2"
	"qaoa2/internal/rng"
	rt "qaoa2/internal/runtime"
	"qaoa2/internal/solver"
)

// Policy decides, per sub-graph, which solver runs it — the paper's
// run-time quantum-vs-classical decision mechanism ("a coordinator could
// inspect the sub-graphs and calculate the most appropriate resource
// allocation in advance", Fig. 2).
type Policy func(sub *graph.Graph) qaoa2.SubSolver

// DensityPolicy returns the naive rule the paper's grid search motivates
// (§4): QAOA for sub-graphs with small edge probability, the classical
// solver otherwise.
func DensityPolicy(threshold float64, quantum, classical qaoa2.SubSolver) Policy {
	return func(sub *graph.Graph) qaoa2.SubSolver {
		if sub.Density() <= threshold {
			return quantum
		}
		return classical
	}
}

// CoordinatedOptions configures CoordinatedSolve.
type CoordinatedOptions struct {
	// Workers is the number of worker ranks (total ranks = Workers+1;
	// rank 0 is the dedicated coordinator of Fig. 2). Default 4.
	Workers int
	// MaxQubits caps sub-graph sizes (default 16).
	MaxQubits int
	// Policy picks the solver per sub-graph (default: always Solver).
	Policy Policy
	// Solver is the fallback solver when Policy is nil (default QAOA).
	Solver qaoa2.SubSolver
	// MergeSolver solves the contracted merge graphs in-process, like
	// qaoa2.Options.MergeSolver (default: Solver).
	MergeSolver qaoa2.SubSolver
	// Seed derives the runtime's per-task randomness: results do not
	// depend on which worker handled which sub-graph.
	Seed uint64
}

// CoordinatedResult reports a coordinator-workflow run.
type CoordinatedResult struct {
	Cut       maxcut.Cut
	SubGraphs int
	Levels    int
	// Assignments records the policy's solver name per first-level
	// sub-graph index.
	Assignments []string
	// WorkerBusy is wall-clock solve time per worker; the spread
	// measures load balance.
	WorkerBusy []time.Duration
	// Elapsed is the wall time of the distributed phase, from the
	// first sub-graph dispatch to the last result; Elapsed minus the
	// worker busy time measures the "minimal overhead incurred by the
	// coordination" the paper reports.
	Elapsed time.Duration
	// Comm is the message traffic between coordinator and workers.
	Comm WorldStats
}

// message tags for the coordinator protocol.
const (
	// tagTask carries a job from the coordinator to a worker.
	tagTask = iota + 1
	// tagInbox carries everything the coordinator receives: jobs
	// posted by dispatchers, results from workers, and the stop
	// signal.
	tagInbox
)

// job is one sub-graph solve routed through the coordinator.
type job struct {
	sub    *graph.Graph
	solver qaoa2.SubSolver
	r      *rng.Rand
	reply  chan taskResult
}

// stop releases the coordinator once the solve has drained.
type stop struct{}

// taskResult returns a sub-graph solution.
type taskResult struct {
	cut  maxcut.Cut
	err  error
	busy time.Duration
}

// CoordinatedSolve runs QAOA² as the paper's Fig. 2 workflow on the
// task-graph runtime: the runtime partitions and merges, and every
// first-level sub-graph solve is dispatched through the dedicated
// coordinator rank to a worker rank on demand (first-come-first-served,
// so fast workers take more). Per-task randomness comes from the
// runtime, so the result is exactly qaoa2.Solve's for the same solvers
// and seed, independent of the worker count.
func CoordinatedSolve(g *graph.Graph, opts CoordinatedOptions) (*CoordinatedResult, error) {
	if opts.Workers <= 0 {
		opts.Workers = 4
	}
	if opts.MaxQubits <= 0 {
		opts.MaxQubits = 16
	}
	if opts.Solver == nil {
		opts.Solver = qaoa2.QAOASolver{}
	}
	if opts.MergeSolver == nil {
		opts.MergeSolver = opts.Solver
	}
	policy := opts.Policy
	if policy == nil {
		policy = func(*graph.Graph) qaoa2.SubSolver { return opts.Solver }
	}

	world, err := NewWorld(opts.Workers + 1)
	if err != nil {
		return nil, err
	}
	busy := make([]time.Duration, opts.Workers)
	var elapsed time.Duration
	ranksDone := make(chan struct{})
	go func() {
		defer close(ranksDone)
		world.Run(func(c *Comm) {
			if c.Rank() == 0 {
				elapsed = coordinator(c, busy)
				return
			}
			worker(c)
		})
	}()
	res, err := rt.Solve(g, rt.Options{
		MaxQubits:   opts.MaxQubits,
		Solver:      dispatcher{policy: policy, world: world},
		MergeSolver: opts.MergeSolver,
		Parallelism: opts.Workers,
		Seed:        opts.Seed,
	})
	world.Post(0, tagInbox, stop{})
	<-ranksDone
	if err != nil {
		return nil, err
	}

	assignments := make([]string, len(res.SubReports))
	for i, r := range res.SubReports {
		assignments[i] = r.Solver
	}
	return &CoordinatedResult{
		Cut:         res.Cut,
		SubGraphs:   res.SubGraphs,
		Levels:      res.Levels,
		Assignments: assignments,
		WorkerBusy:  busy,
		Elapsed:     elapsed,
		Comm:        world.Stats(),
	}, nil
}

// dispatcher is the leaf solver CoordinatedSolve hands the runtime: it
// picks the solver by policy ("inspect the sub-graphs ... in advance")
// and hands the solve to the coordinator rank, blocking until a worker
// returns the cut.
type dispatcher struct {
	policy Policy
	world  *World
}

// Name implements solver.Solver.
func (d dispatcher) Name() string { return "coordinated" }

// SolveSub implements solver.Solver.
func (d dispatcher) SolveSub(g *graph.Graph, r *rng.Rand) (maxcut.Cut, error) {
	cut, _, err := d.SolveSubAttributed(g, r)
	return cut, err
}

// SolveSubAttributed implements solver.Attributor: the sub-report names
// the solver the policy chose.
func (d dispatcher) SolveSubAttributed(g *graph.Graph, r *rng.Rand) (maxcut.Cut, solver.Report, error) {
	s := d.policy(g)
	j := &job{sub: g, solver: s, r: r, reply: make(chan taskResult, 1)}
	d.world.Post(0, tagInbox, j)
	res := <-j.reply
	if res.err != nil {
		return maxcut.Cut{}, solver.Report{}, fmt.Errorf("hpc: %s: %w", s.Name(), res.err)
	}
	return res.cut, solver.Report{Winner: s.Name()}, nil
}

// coordinator is rank 0, the only goroutine touching its Comm: it ships
// every posted job to a free worker, routes each result back to its
// dispatcher, and releases the workers on stop. It returns the span
// from the first job's arrival to the last result.
func coordinator(c *Comm, busy []time.Duration) time.Duration {
	var first, last time.Time
	free := make([]int, 0, c.Size()-1)
	for w := 1; w < c.Size(); w++ {
		free = append(free, w)
	}
	var queued []*job
	running := make(map[int]*job, c.Size()-1)
	for {
		payload, from := c.Recv(AnySource, tagInbox)
		switch m := payload.(type) {
		case *job:
			if first.IsZero() {
				first = time.Now()
			}
			queued = append(queued, m)
		case taskResult:
			last = time.Now()
			busy[from-1] += m.busy
			running[from].reply <- m
			delete(running, from)
			free = append(free, from)
		case stop:
			for w := 1; w < c.Size(); w++ {
				c.Send(w, tagTask, (*job)(nil), 0)
			}
			return last.Sub(first)
		}
		for len(queued) > 0 && len(free) > 0 {
			w, j := free[0], queued[0]
			free, queued = free[1:], queued[1:]
			running[w] = j
			c.Send(w, tagTask, j, graphBytes(j.sub))
		}
	}
}

// worker solves jobs until the nil stop job arrives.
func worker(c *Comm) {
	for {
		payload, _ := c.Recv(0, tagTask)
		j := payload.(*job)
		if j == nil {
			return
		}
		start := time.Now()
		cut, err := j.solver.SolveSub(j.sub, j.r)
		c.Send(0, tagInbox, taskResult{cut: cut, err: err, busy: time.Since(start)}, len(cut.Spins))
	}
}

// graphBytes estimates a sub-graph's wire size for traffic accounting.
func graphBytes(g *graph.Graph) int {
	return 16 + 24*g.M()
}
