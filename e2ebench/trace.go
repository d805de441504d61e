package main

import (
	"sync"
	"time"

	"qaoa2/internal/backend"
	"qaoa2/internal/graph"
	"qaoa2/internal/maxcut"
	"qaoa2/internal/qsim"
	"qaoa2/internal/rng"
	"qaoa2/internal/solver"
)

// Span kinds recorded at the layer boundaries the benchmark wraps.
const (
	kindSolve     = "solve"     // one qaoa2.Solve call, or one served job's run
	kindPartition = "partition" // partition.SizeCapped, or a served job's pre-leaf phase
	kindLeaf      = "leaf"      // Solver.SolveSub on a first-level sub-graph
	kindMerge     = "merge"     // MergeSolver.SolveSub at any merge level
	kindMember    = "member"    // one inner solver of a composite leaf (best-of)
	kindPrepare   = "prepare"   // Backend.Prepare
	kindEvaluate  = "evaluate"  // all Evaluate calls on one prepared Ansatz, aggregated
)

// span is one traced interval. Times are nanoseconds since the tracer's
// epoch. Evaluate spans aggregate every call on one Ansatz: Start/End
// bound the first and last call, Calls/Busy/AmpBytes sum them.
type span struct {
	ID       int     `json:"id"`
	Parent   int     `json:"parent"`
	Solve    int     `json:"solve"`
	Kind     string  `json:"kind"`
	Solver   string  `json:"solver,omitempty"`
	Nodes    int     `json:"nodes,omitempty"`
	Weight   float64 `json:"weight,omitempty"`
	Start    int64   `json:"start"`
	End      int64   `json:"end"`
	Calls    int     `json:"calls,omitempty"`
	Busy     int64   `json:"busy,omitempty"`
	AmpBytes float64 `json:"ampBytes,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	epoch time.Time

	mu     sync.Mutex
	spans  []span
	evals  []*evalStats
	solves int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// newSolve allocates a solve id.
func (t *tracer) newSolve() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.solves++
	return t.solves
}

// begin opens a span and returns its id.
func (t *tracer) begin(s span) int {
	s.Start = t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans)
	t.spans = append(t.spans, s)
	return s.ID
}

// end closes span id.
func (t *tracer) end(id int) {
	now := t.now()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// snapshot returns every span, with each prepared Ansatz's Evaluate
// counters folded in as one evaluate span. Call it only once the traced
// solves have returned.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := append([]span(nil), t.spans...)
	for _, ev := range t.evals {
		if ev.calls == 0 {
			continue
		}
		out = append(out, span{
			ID: len(out), Parent: ev.parent, Solve: ev.solve, Kind: kindEvaluate,
			Nodes: ev.nodes, Start: ev.first, End: ev.last,
			Calls: ev.calls, Busy: ev.busy, AmpBytes: ev.ampBytes,
		})
	}
	return out
}

// tracedSolver wraps a solver so every SolveSub records a span of kind
// under parent. Per call it rebinds the inner solver to that span: a
// best-of solver's members are wrapped as member spans, and a QAOA
// solver's backend is wrapped so Prepare and Evaluate land under it.
// Name forwards, so reports, attribution and checkpoints see the inner
// solver's name.
type tracedSolver struct {
	inner  solver.Solver
	tr     *tracer
	kind   string
	solve  int
	parent int
}

// instrument wraps s; the result implements solver.Attributor exactly
// when s does, so solver.SolveAttributed takes the same path.
func instrument(s solver.Solver, tr *tracer, kind string, solve, parent int) solver.Solver {
	t := tracedSolver{inner: s, tr: tr, kind: kind, solve: solve, parent: parent}
	if _, ok := s.(solver.Attributor); ok {
		return tracedAttributor{t}
	}
	return t
}

func (t tracedSolver) Name() string { return t.inner.Name() }

func (t tracedSolver) SolveSub(g *graph.Graph, r *rng.Rand) (maxcut.Cut, error) {
	id := t.open(g)
	defer t.tr.end(id)
	return t.bind(id).SolveSub(g, r)
}

func (t tracedSolver) open(g *graph.Graph) int {
	return t.tr.begin(span{
		Parent: t.parent, Solve: t.solve, Kind: t.kind, Solver: t.inner.Name(),
		Nodes: g.N(), Weight: g.TotalWeight(),
	})
}

// bind returns the inner solver with its layers wrapped under span id.
func (t tracedSolver) bind(id int) solver.Solver {
	switch s := t.inner.(type) {
	case solver.BestOfSolver:
		members := make([]solver.Solver, len(s.Solvers))
		for i, m := range s.Solvers {
			members[i] = instrument(m, t.tr, kindMember, t.solve, id)
		}
		return solver.BestOfSolver{Solvers: members}
	case solver.QAOASolver:
		be := s.Opts.Backend
		if be == nil {
			be = backend.Default(s.Opts.Synthesis)
		}
		s.Opts.Backend = tracedBackend{inner: be, tr: t.tr, solve: t.solve, parent: id}
		return s
	}
	return t.inner
}

type tracedAttributor struct{ tracedSolver }

func (t tracedAttributor) SolveSubAttributed(g *graph.Graph, r *rng.Rand) (maxcut.Cut, solver.Report, error) {
	id := t.open(g)
	defer t.tr.end(id)
	return t.bind(id).(solver.Attributor).SolveSubAttributed(g, r)
}

// tracedBackend records each Prepare as a span and wraps the prepared
// Ansatz so its Evaluate calls are counted and timed.
type tracedBackend struct {
	inner         backend.Backend
	tr            *tracer
	solve, parent int
}

func (b tracedBackend) Name() string { return b.inner.Name() }

func (b tracedBackend) Prepare(g *graph.Graph, cfg backend.Config) (backend.Ansatz, error) {
	id := b.tr.begin(span{Parent: b.parent, Solve: b.solve, Kind: kindPrepare, Nodes: g.N()})
	a, err := b.inner.Prepare(g, cfg)
	b.tr.end(id)
	if err != nil {
		return nil, err
	}
	ev := &evalStats{
		tr: b.tr, solve: b.solve, parent: b.parent, nodes: g.N(),
		bytesPerEval: ampBytes(g.N(), cfg.Layers),
	}
	b.tr.mu.Lock()
	b.tr.evals = append(b.tr.evals, ev)
	b.tr.mu.Unlock()
	ta := tracedAnsatz{Ansatz: a, ev: ev}
	if be, ok := a.(backend.BatchEvaluator); ok {
		return tracedBatchAnsatz{tracedAnsatz: ta, batch: be}, nil
	}
	return ta, nil
}

// ampBytes is the statevector traffic one Evaluate implies: 2^(n-1)
// complex128 amplitudes (the Z2-reduced state) swept once per layer.
func ampBytes(n, layers int) float64 {
	if n < 1 || n > qsim.MaxQubits {
		return 0
	}
	return float64(uint64(1)<<uint(n-1)) * 16 * float64(layers)
}

// evalStats accumulates one Ansatz's Evaluate calls. An Ansatz is not
// used concurrently, so only its owner goroutine writes these; the
// tracer reads them after the solve returns.
type evalStats struct {
	tr            *tracer
	solve, parent int
	nodes         int
	bytesPerEval  float64

	calls       int
	busy        int64
	first, last int64
	ampBytes    float64
}

func (e *evalStats) record(start, end int64, calls int) {
	if e.calls == 0 {
		e.first = start
	}
	e.last = end
	e.calls += calls
	e.busy += end - start
	e.ampBytes += float64(calls) * e.bytesPerEval
}

type tracedAnsatz struct {
	backend.Ansatz
	ev *evalStats
}

func (a tracedAnsatz) Evaluate(gammas, betas []float64) (float64, *qsim.State, error) {
	start := a.ev.tr.now()
	e, s, err := a.Ansatz.Evaluate(gammas, betas)
	a.ev.record(start, a.ev.tr.now(), 1)
	return e, s, err
}

// tracedBatchAnsatz forwards EvaluateBatch, so backend.EvaluateBatch
// keeps the inner Ansatz's native batch path.
type tracedBatchAnsatz struct {
	tracedAnsatz
	batch backend.BatchEvaluator
}

func (a tracedBatchAnsatz) EvaluateBatch(gammas, betas [][]float64, energies []float64) error {
	start := a.ev.tr.now()
	err := a.batch.EvaluateBatch(gammas, betas, energies)
	a.ev.record(start, a.ev.tr.now(), len(gammas))
	return err
}
