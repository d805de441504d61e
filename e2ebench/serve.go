package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"qaoa2/internal/graph"
	"qaoa2/internal/retry"
	"qaoa2/internal/rng"
	"qaoa2/internal/serve"
)

const (
	// serveClients is the closed loop's size: two callers that each wait
	// for their job, so one queues behind the other's solve.
	serveClients = 2
	// repeatFrac is the share of requests that repeat an earlier
	// instance. Well below one half, it keeps job_s_p50 inside the
	// solved jobs rather than on the edge between them and cache hits.
	repeatFrac = 0.25
)

// serveWorkload drives an in-process serve.Server over loopback HTTP
// with a closed loop of clients. Requests follow a deterministic
// sequence of generated instances in which a share repeats an earlier
// instance, so the result cache and coalescing are exercised.
type serveWorkload struct {
	nodes     int
	degree    float64
	maxQubits int
	// window bounds repeats to the most recent distinct instances, and
	// retain is the server's RetainJobs: with window well inside retain,
	// every repeat is answered from the cache, and the server's retained
	// state (so its memory) stops growing once retain jobs have settled.
	window, retain int
	// scored is how many distinct instances, taken in sequence order,
	// make up cut_value; every run solves at least these.
	scored int
}

func (w serveWorkload) instance(seed uint64, inst int) (*graph.Graph, serve.SolveRequest) {
	g := graph.ErdosRenyi(w.nodes, w.degree/float64(w.nodes-1), graph.Unweighted,
		rng.New(seed^0x5e7e).Split(uint64(inst)))
	// Solver and merge are left to the server's defaults (best / gw).
	return g, serve.SolveRequest{Graph: serve.GraphSpecOf(g), MaxQubits: w.maxQubits, Seed: solveSeed(seed, inst)}
}

// serveEnv is one running server with its HTTP listener and client.
type serveEnv struct {
	dir    string
	srv    *serve.Server
	hs     *http.Server
	served chan struct{}
	tr     *http.Transport
	client *serve.Client
}

// startServe starts a server whose checkpoints and job table live in a
// fresh state directory under outDir. A nil resolve keeps the server's
// registry default.
func startServe(outDir string, retain int, resolve func(serve.SolveRequest) (serve.Solvers, error)) (*serveEnv, error) {
	dir, err := os.MkdirTemp(outDir, "serve-state-")
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Config{StateDir: dir, RetainJobs: retain, Resolve: resolve})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	e := &serveEnv{dir: dir, srv: srv, hs: &http.Server{Handler: srv.Handler()}, served: make(chan struct{}), tr: &http.Transport{}}
	go func() {
		defer close(e.served)
		_ = e.hs.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	e.client = &serve.Client{Base: "http://" + ln.Addr().String(), HTTP: &http.Client{Transport: e.tr}}
	return e, nil
}

// close stops the listener, the server and its goroutines, and removes
// the state directory.
func (e *serveEnv) close() {
	e.hs.Close()
	<-e.served
	e.tr.CloseIdleConnections()
	e.srv.Close()
	os.RemoveAll(e.dir)
}

// warm submits the warm-up request, the same for every seed, and waits
// for its result.
func (w serveWorkload) warm(e *serveEnv) error {
	_, req := w.instance(warmSeed, 0)
	st, err := e.client.Solve(context.Background(), req, nil)
	if err == nil && st.State != serve.JobDone {
		err = fmt.Errorf("warm-up job ended %s: %s", st.State, st.Error)
	}
	return err
}

// jobRecord is one submission as the client saw it.
type jobRecord struct {
	inst        int
	id          string
	fresh       bool    // neither a cache hit nor coalesced onto a running job
	submit      float64 // Submit round trip, s
	firstEvent  float64 // Submit return to first streamed event, s (0 when none)
	total       float64 // submit to done, s
	events      int
	parallelism int
	result      *serve.JobResult
}

// serveRun is the shared state of one phase of closed-loop clients.
type serveRun struct {
	w    serveWorkload
	seed uint64
	out  *runOutput
	env  *serveEnv
	// onFresh, when set, is called for each fresh job right after its
	// submission (the traced phase watches the job's completion).
	onFresh func(id string)

	mu       sync.Mutex
	k        int // next sequence position
	distinct int // distinct instances issued so far
	graphs   map[int]*graph.Graph
	reqs     map[int]serve.SolveRequest
	first    map[int][]byte // first result of each instance, JSON
	value    map[int]float64
	spins    map[int]string
	jobs     []jobRecord
	rejected int
}

func newServeRun(w serveWorkload, seed uint64, out *runOutput, env *serveEnv) *serveRun {
	return &serveRun{
		w: w, seed: seed, out: out, env: env,
		graphs: map[int]*graph.Graph{}, reqs: map[int]serve.SolveRequest{},
		first: map[int][]byte{}, value: map[int]float64{}, spins: map[int]string{},
	}
}

// next returns the instance the next request asks for: a new one, or
// with probability repeatFrac one of the last window distinct ones. The
// choice depends only on the seed and the sequence position. Instances
// that can no longer repeat are dropped.
func (s *serveRun) next() (int, *graph.Graph, serve.SolveRequest) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := rng.New(s.seed ^ 0x5eed).Split(uint64(s.k))
	s.k++
	inst := s.distinct
	if s.distinct > 0 && r.Float64() < repeatFrac {
		inst = s.distinct - 1 - r.Intn(min(s.distinct, s.w.window))
	} else {
		s.distinct++
		s.graphs[inst], s.reqs[inst] = s.w.instance(s.seed, inst)
		old := inst - s.w.window
		delete(s.graphs, old)
		delete(s.reqs, old)
		delete(s.first, old)
	}
	return inst, s.graphs[inst], s.reqs[inst]
}

// done reports whether the scored instances all have results, or a job
// failed: a failing server might never finish them, and the run fails
// anyway.
func (s *serveRun) done() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.out.failed > 0 {
		return true
	}
	for i := 0; i < s.w.scored; i++ {
		if _, ok := s.value[i]; !ok {
			return false
		}
	}
	return true
}

// drive runs the closed loop for the given time and until every scored
// instance has a result, then returns the wall time.
func (s *serveRun) drive(seconds time.Duration) float64 {
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < seconds || !s.done() {
				s.job()
			}
		}()
	}
	wg.Wait()
	return time.Since(start).Seconds()
}

// job submits one request, follows it to the end and gates the result.
func (s *serveRun) job() {
	inst, g, req := s.next()
	ctx := context.Background()
	rec := jobRecord{inst: inst}
	t0 := time.Now()
	st, err := s.env.client.Submit(ctx, req)
	rec.submit = time.Since(t0).Seconds()
	if err == nil {
		rec.id, rec.fresh = st.ID, !st.Cached && !st.Coalesced
		if rec.fresh && s.onFresh != nil {
			s.onFresh(st.ID)
		}
		if st.State != serve.JobDone && st.State != serve.JobFailed {
			var first time.Time
			st, err = s.env.client.Follow(ctx, st.ID, func(serve.Event) {
				if first.IsZero() {
					first = time.Now()
				}
			})
			if !first.IsZero() {
				rec.firstEvent = first.Sub(t0).Seconds() - rec.submit
			}
		}
	}
	rec.total = time.Since(t0).Seconds()
	rec.events, rec.parallelism, rec.result = st.Events, st.Parallelism, st.Result
	if err == nil && st.State != serve.JobDone {
		err = fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.out.attempted++
	if err == nil {
		err = s.verifyLocked(inst, g, st.Result)
	}
	if err != nil {
		var se *retry.StatusError
		if errors.As(err, &se) && (se.Code == http.StatusTooManyRequests || se.Code == http.StatusServiceUnavailable) {
			s.rejected++
		}
		s.out.fail(fmt.Errorf("instance %d: %w", inst, err))
		return
	}
	s.jobs = append(s.jobs, rec)
}

// verifyLocked gates one job result: the cut re-scores on the instance,
// and every later result for the instance is byte-identical to the
// first.
func (s *serveRun) verifyLocked(inst int, g *graph.Graph, res *serve.JobResult) error {
	if res == nil {
		return fmt.Errorf("done job without a result")
	}
	spins, err := serve.DecodeSpins(res.Spins)
	if err != nil {
		return err
	}
	c := cutClaim{spins: spins, value: res.Value, intra: res.IntraCut, cross: res.CrossCut}
	for _, r := range res.Reports {
		c.leafValues = append(c.leafValues, r.Value)
	}
	if err := checkCut(g, c); err != nil {
		return err
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	if prev, ok := s.first[inst]; !ok {
		s.first[inst] = b
		if _, seen := s.value[inst]; !seen {
			s.value[inst], s.spins[inst] = res.Value, res.Spins
		}
	} else if string(prev) != string(b) {
		return fmt.Errorf("a repeated request returned a different result")
	}
	return nil
}

func (w serveWorkload) run(cfg config, out *runOutput) error {
	var env *serveEnv
	defer func() {
		if env != nil {
			env.close()
		}
	}()
	err := out.timeSetup(func() error {
		if env != nil {
			env.close()
		}
		var err error
		if env, err = startServe(cfg.outDir, w.retain, nil); err != nil {
			return err
		}
		return w.warm(env)
	})
	if err != nil {
		return err
	}
	if cfg.trace {
		return w.traced(cfg, out, env)
	}
	s := newServeRun(w, cfg.seed, out, env)
	wall := s.drive(cfg.seconds)
	var solves, jobs []float64
	for _, j := range s.jobs {
		jobs = append(jobs, j.total)
		if j.fresh {
			solves = append(solves, j.total)
		}
	}
	out.setTimings("solve_s", "solves_per_s", solves, wall)
	out.setTimings("job_s", "jobs_per_s", jobs, wall)
	cut := 0.0
	for i := 0; i < w.scored; i++ {
		cut += s.value[i]
	}
	out.values["cut_value"] = cut
	return nil
}

// traced runs the closed loop twice for half the time each: first
// against the untraced server from setup, then against a second server
// whose solvers are instrumented. Both must return the same cuts. The
// serve-layer metrics come from the untraced phase, the solver layers
// from the traced one.
func (w serveWorkload) traced(cfg config, out *runOutput, plainEnv *serveEnv) error {
	plain := newServeRun(w, cfg.seed, out, plainEnv)
	plain.drive(cfg.seconds / 2)

	tr := newTracer()
	var mu sync.Mutex
	roots := map[string][]int{} // job id → solve ids of each Resolve call
	resolve := func(req serve.SolveRequest) (serve.Solvers, error) {
		s, err := serve.ResolveSolvers(req)
		if err != nil {
			return s, err
		}
		key, err := req.JobKey()
		if err != nil {
			return s, err
		}
		weight := 0.0
		for _, e := range req.Graph.Edges {
			weight += e.W
		}
		id := tr.newSolve()
		root := tr.begin(span{Solve: id, Kind: kindSolve, Solver: s.Sub.Name(), Nodes: req.Graph.Nodes, Weight: weight})
		mu.Lock()
		roots[key] = append(roots[key], id)
		mu.Unlock()
		return serve.Solvers{
			Sub:   instrument(s.Sub, tr, kindLeaf, id, root),
			Merge: instrument(s.Merge, tr, kindMerge, id, root),
		}, nil
	}
	env, err := startServe(cfg.outDir, w.retain, resolve)
	if err != nil {
		return err
	}
	defer env.close()
	if err := w.warm(env); err != nil {
		return err
	}
	tracedRun := newServeRun(w, cfg.seed, out, env)
	doneAt := map[string]int64{}
	var watchers sync.WaitGroup
	tracedRun.onFresh = func(id string) {
		ch, err := env.srv.Done(id)
		if err != nil {
			return
		}
		watchers.Add(1)
		go func() {
			defer watchers.Done()
			<-ch
			now := tr.now()
			mu.Lock()
			doneAt[id] = now
			mu.Unlock()
		}()
	}
	tracedRun.drive(cfg.seconds / 2)
	watchers.Wait()

	for inst, sp := range tracedRun.spins {
		if prev, ok := plain.spins[inst]; ok && prev != sp {
			out.fail(fmt.Errorf("instance %d: traced server returned different spins", inst))
		}
	}

	ran := map[int]bool{}
	for _, s := range tr.snapshot() {
		if s.Kind == kindLeaf {
			ran[s.Solve] = true
		}
	}
	var infos []solveInfo
	var plainSolves, tracedSolves []float64
	for _, j := range plain.jobs {
		if j.fresh {
			plainSolves = append(plainSolves, j.total)
		}
	}
	for _, j := range tracedRun.jobs {
		if !j.fresh {
			continue
		}
		tracedSolves = append(tracedSolves, j.total)
		for _, id := range roots[j.id] {
			if !ran[id] {
				continue
			}
			info := solveInfo{solve: id, maxQubits: w.maxQubits, parallelism: j.parallelism,
				levels: j.result.Levels, end: doneAt[j.id]}
			for _, r := range j.result.Reports {
				info.countQAOA(r.Solver, r.Attempts)
			}
			infos = append(infos, info)
		}
	}

	var events, fresh float64
	var submits, waits []float64
	for _, j := range plain.jobs {
		submits = append(submits, j.submit)
		if j.fresh {
			fresh++
			events += float64(j.events)
			waits = append(waits, j.firstEvent)
		}
	}
	jobs := float64(len(plain.jobs))
	out.values["serve.submit_s_p50"] = median(submits)
	out.values["serve.first_event_s_p50"] = median(waits)
	out.values["serve.cache_hit_frac"] = ratio(jobs-fresh, jobs)
	out.values["serve.rejected"] = float64(plain.rejected + tracedRun.rejected)
	out.values["runtime.events_per_job"] = ratio(events, fresh)
	out.note("serve metrics from the untraced phase: %d jobs, %d computed", len(plain.jobs), int(fresh))
	return out.setLayers(tr, infos, summarize(tracedSolves).p50-summarize(plainSolves).p50)
}
