package main

import (
	"fmt"
	"runtime"
	"time"

	"qaoa2"
	"qaoa2/internal/graph"
	"qaoa2/internal/partition"
	"qaoa2/internal/serve"
	"qaoa2/internal/solver"
)

// batchWorkload solves a fixed set of generated instances through the
// qaoa2.Solve facade, one solve at a time, round-robin until the run's
// time is up and every instance has been solved.
type batchWorkload struct {
	maxQubits int
	// solver and merge name registry solvers; "" is the library
	// default (QAOA p=3 on the default backend, merging with QAOA).
	solver, merge string
	// count instances are generated per run by instance(seed, i). Solve
	// times differ up to twofold between instances of one kind, so a run
	// solves many distinct instances once rather than a few many times:
	// count is sized so that one pass fills about a run at full size.
	count    int
	instance func(seed uint64, i int) *graph.Graph
	// wrapLeaf, when set, wraps the sub-graph solver (tests inject a
	// faulty solver to prove the correctness gate fires).
	wrapLeaf func(solver.Solver) solver.Solver
}

// solveSeed is the qaoa2 seed of instance i.
func solveSeed(seed uint64, i int) uint64 { return seed*1009 + uint64(i) }

// solvers builds the concrete sub-graph and merge solvers the options
// would resolve to.
func (w batchWorkload) solvers() (sub, merge solver.Solver, err error) {
	sub = qaoa2.QAOASolver{}
	if w.solver != "" {
		if sub, err = solver.FromName(w.solver); err != nil {
			return nil, nil, err
		}
	}
	merge = sub
	if w.merge != "" {
		if merge, err = solver.FromName(w.merge); err != nil {
			return nil, nil, err
		}
	}
	if w.wrapLeaf != nil {
		sub = w.wrapLeaf(sub)
	}
	return sub, merge, nil
}

// options is the untraced call: the declarative solver specs a library
// user would pass.
func (w batchWorkload) options(seed uint64) (qaoa2.Options, error) {
	opts := qaoa2.Options{
		MaxQubits:  w.maxQubits,
		SolverSpec: solver.Spec{Name: w.solver},
		MergeSpec:  solver.Spec{Name: w.merge},
		Seed:       seed,
	}
	if w.wrapLeaf != nil {
		sub, merge, err := w.solvers()
		if err != nil {
			return opts, err
		}
		opts.Solver, opts.MergeSolver = sub, merge
	}
	return opts, nil
}

// solve runs one untraced solve.
func (w batchWorkload) solve(g *graph.Graph, seed uint64) (*qaoa2.Result, time.Duration, error) {
	opts, err := w.options(seed)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	res, err := qaoa2.Solve(g, opts)
	return res, time.Since(start), err
}

// solveTraced runs one solve with every layer wrapped: the partition is
// computed by a timed partition.SizeCapped call and handed to Solve as
// the explicit partition, the solvers are instrumented, and the QAOA
// backend records Prepare and Evaluate.
func (w batchWorkload) solveTraced(tr *tracer, g *graph.Graph, seed uint64) (*qaoa2.Result, solveInfo, time.Duration, error) {
	sub, merge, err := w.solvers()
	if err != nil {
		return nil, solveInfo{}, 0, err
	}
	id := tr.newSolve()
	start := time.Now()
	root := tr.begin(span{Solve: id, Kind: kindSolve, Solver: sub.Name(), Nodes: g.N(), Weight: g.TotalWeight()})
	opts := qaoa2.Options{
		MaxQubits:   w.maxQubits,
		Solver:      instrument(sub, tr, kindLeaf, id, root),
		MergeSolver: instrument(merge, tr, kindMerge, id, root),
		Seed:        seed,
	}
	if g.N() > w.maxQubits {
		pid := tr.begin(span{Parent: root, Solve: id, Kind: kindPartition, Nodes: g.N()})
		opts.Partition, err = partition.SizeCapped(g, w.maxQubits)
		tr.end(pid)
	}
	var res *qaoa2.Result
	if err == nil {
		res, err = qaoa2.Solve(g, opts)
	}
	tr.end(root)
	elapsed := time.Since(start)
	if err != nil {
		return nil, solveInfo{}, elapsed, err
	}
	info := solveInfo{solve: id, maxQubits: w.maxQubits, parallelism: runtime.GOMAXPROCS(0), levels: res.Levels}
	for _, r := range res.SubReports {
		info.countQAOA(r.Solver, r.Attempts)
	}
	return res, info, elapsed, nil
}

func claimOf(res *qaoa2.Result) cutClaim {
	c := cutClaim{spins: res.Cut.Spins, value: res.Cut.Value, intra: res.IntraCut, cross: res.CrossCut}
	for _, r := range res.SubReports {
		c.leafValues = append(c.leafValues, r.Value)
	}
	return c
}

// batchRun is the state of one batch benchmark run.
type batchRun struct {
	w     batchWorkload
	seed  uint64
	first []string // spins of each instance's first solve
	value []float64
	out   *runOutput
}

// setup warms up with one solve of the warm-up instance; the benchmark
// repeats it and reports the median. The measured instances are
// generated one at a time between timed solves, so that only the
// instance being solved is in memory and peak_rss_mb is the program's.
func (w batchWorkload) setup() error {
	_, _, err := w.solve(w.instance(warmSeed, 0), solveSeed(warmSeed, 0))
	return err
}

// verify gates one solve of instance i and reports whether it passed.
func (b *batchRun) verify(i int, g *graph.Graph, res *qaoa2.Result, err error) bool {
	b.out.attempted++
	if err == nil {
		err = checkCut(g, claimOf(res))
	}
	if err == nil {
		key := serve.EncodeSpins(res.Cut.Spins)
		switch {
		case b.first[i] == "":
			b.first[i] = key
			b.value[i] = res.Cut.Value
		case b.first[i] != key:
			err = fmt.Errorf("a repeated solve returned different spins")
		}
	}
	if err != nil {
		b.out.fail(fmt.Errorf("instance %d: %w", i, err))
		return false
	}
	return true
}

// minRepeats is how many solves past one pass over the instances a run
// makes at least, so that every run checks that a repeated solve of an
// instance returns the same spins.
const minRepeats = 2

// more reports whether a run that has made k solves (traced: k solve
// pairs) of n instances goes on.
func more(k, n int, start time.Time, seconds time.Duration) bool {
	return k < n+minRepeats || time.Since(start) < seconds
}

func (w batchWorkload) run(cfg config, out *runOutput) error {
	if err := out.timeSetup(w.setup); err != nil {
		return err
	}
	b := &batchRun{w: w, seed: cfg.seed, first: make([]string, w.count), value: make([]float64, w.count), out: out}
	if cfg.trace {
		return b.traced(cfg)
	}
	var times []float64
	start := time.Now()
	for k := 0; more(k, w.count, start, cfg.seconds); k++ {
		i := k % w.count
		g := w.instance(cfg.seed, i)
		res, d, err := w.solve(g, solveSeed(cfg.seed, i))
		if b.verify(i, g, res, err) {
			times = append(times, d.Seconds())
		}
	}
	wall := time.Since(start).Seconds()
	out.setTimings("solve_s", "solves_per_s", times, wall)
	out.setTimings("job_s", "jobs_per_s", times, wall)
	out.values["cut_value"] = sum(b.value)
	return nil
}

// traced solves every instance untraced and traced (which goes first
// alternates), checks that both return the same spins, and derives the
// layer breakdown from the traced ones.
func (b *batchRun) traced(cfg config) error {
	tr := newTracer()
	var plain, traced []float64
	var infos []solveInfo
	start := time.Now()
	for k := 0; more(k, b.w.count, start, cfg.seconds); k++ {
		i := k % b.w.count
		g, seed := b.w.instance(b.seed, i), solveSeed(b.seed, i)
		for pass := 0; pass < 2; pass++ {
			if (pass+k)%2 == 0 {
				res, d, err := b.w.solve(g, seed)
				if b.verify(i, g, res, err) {
					plain = append(plain, d.Seconds())
				}
				continue
			}
			res, info, d, err := b.w.solveTraced(tr, g, seed)
			if b.verify(i, g, res, err) {
				traced = append(traced, d.Seconds())
				infos = append(infos, info)
			}
		}
	}
	return b.out.setLayers(tr, infos, summarize(traced).p50-summarize(plain).p50)
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
