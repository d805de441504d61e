package backend

import (
	"os"
	"runtime"
	"sort"
	"sync"

	"qaoa2/internal/graph"
	"qaoa2/internal/qsim"
	"qaoa2/internal/synth"
)

// maxPhaseLevels bounds the distinct-cut-value lookup table. Unweighted
// graphs have at most m+1 distinct cut values; weighted graphs can have
// up to 2^n, in which case the fused path falls back to a per-amplitude
// Sincos.
const maxPhaseLevels = 4096

// Fused is the diagonal-cost fast path: because H_C is diagonal in the
// computational basis, the whole e^{-iγ H_C} cost layer is one
// element-wise phase pass e^{-iγ·(cut(x) − W/2)}, and the β mixer is a
// cache-blocked multi-qubit butterfly sweep — no circuit synthesis, no
// gate list, no per-evaluation allocation. Prepare compiles the cost
// diagonal into a persistent qsim.Engine that fuses the phase pass, the
// initial-state preparation and the energy reduction into the blocked
// mixer sweeps (see qsim/engine.go). The −W/2 shift reproduces the
// global phase the RZZ-product gate walk accrues, keeping Fused
// amplitude-identical to Dense (the parity tests pin this to 1e-12).
//
// Fused ignores synthesis preferences: there is no circuit to lower or
// route, so Report() is zero and Layout() is the identity. Callers that
// need synthesis metrics use Dense (backend.Default selects it when
// preferences are set).
//
// By default the fused path also exploits the Z2 spin-flip symmetry of
// the QAOA-for-MaxCut evolution (qsim/z2.go): H_C and the RX mixer
// commute with X^⊗n and |+⟩^⊗n is symmetric, so the state stays in the
// even sector and the engine stores only the 2^(n−1) pair
// representatives — half the memory and roughly half the sweep time at
// every size. The reduction is exact (the parity tests pin it to the
// Dense walk at 1e-12), and the returned states report full-space
// measurement results (z2.go), so consumers cannot tell the difference.
// Set Full (backend name "fused-full"), or the environment variable
// QAOA2_NOZ2, to force the unreduced engine — the A/B control for
// benchmarks and for bisecting any suspected reduction issue.
type Fused struct {
	// Full disables the Z2 symmetry reduction and simulates all 2^n
	// amplitudes.
	Full bool
}

// Name implements Backend.
func (f Fused) Name() string {
	if f.Full {
		return "fused-full"
	}
	return "fused"
}

// Prepare implements Backend: compiles the cut-value tables and builds
// the persistent single-node fused execution engine. The −W/2 phase
// shift reproduces the RZZ-product gate walk's global phase.
func (f Fused) Prepare(g *graph.Graph, cfg Config) (Ansatz, error) {
	if err := checkGraph(g, cfg); err != nil {
		return nil, err
	}
	a := &fusedAnsatz{fusedCore: newFusedCore(g.N(), cfg.Layers, CutTable(g, nil), g.TotalWeight()/2, !f.Full)}
	var err error
	if a.eng, err = a.newEngine(1); err != nil {
		return nil, err
	}
	return a, nil
}

// newFusedCore compiles the tables every fused ansatz shares: diag is
// the expectation table, diag − center the phase diagonal, factored —
// when it has few distinct values — into an indexed form that replaces
// per-amplitude trigonometry with a per-level lookup. The phase tables
// are the reduced prefix halves when symmetric (diag(x) = diag(~x))
// holds and the Z2 engine applies: it needs a pair to fold, i.e. at
// least two qubits, and QAOA2_NOZ2 disables it.
func newFusedCore(n, layers int, diag []float64, center float64, symmetric bool) fusedCore {
	c := fusedCore{n: n, layers: layers, diag: diag}
	c.z2 = symmetric && n >= 2 && os.Getenv("QAOA2_NOZ2") == ""
	phaseLen := len(diag)
	if c.z2 {
		phaseLen /= 2
	}
	shift := make([]float64, phaseLen)
	for i := range shift {
		shift[i] = diag[i] - center
	}
	c.levels, c.idx = indexLevels(shift, maxPhaseLevels)
	if c.levels != nil {
		// The indexed path never reads the dense shift table; drop it
		// rather than pin 2^n float64 per prepared ansatz.
		shift = nil
	}
	c.shift = shift
	return c
}

// indexLevels factors diag into (levels, idx) with diag[i] =
// levels[idx[i]] when the distinct-value count is at most maxLevels;
// otherwise it returns (nil, nil).
func indexLevels(diag []float64, maxLevels int) ([]float64, []int32) {
	seen := make(map[float64]int32, maxLevels)
	for _, v := range diag {
		if _, ok := seen[v]; !ok {
			if len(seen) == maxLevels {
				return nil, nil
			}
			seen[v] = 0
		}
	}
	levels := make([]float64, 0, len(seen))
	for v := range seen {
		levels = append(levels, v)
	}
	sort.Float64s(levels)
	for j, v := range levels {
		seen[v] = int32(j)
	}
	idx := make([]int32, len(diag))
	for i, v := range diag {
		idx[i] = seen[v]
	}
	return levels, idx
}

// fusedCore is the compiled cost diagonal and engine both fused
// backends share.
type fusedCore struct {
	n, layers int
	z2        bool      // engines run on the Z2-reduced half-vector
	diag      []float64 // FULL cut-value table, the ⟨H_C⟩ diagonal
	shift     []float64 // diag − center (nil on the indexed path; half-length when z2)
	levels    []float64 // distinct shift values (nil → Sincos fallback)
	idx       []int32   // shift[i] = levels[idx[i]] (half-length when z2)
	eng       *qsim.Engine
}

// newEngine builds an execution engine over the shared tables.
// Diagonal() must keep returning the full 2^n table (sampled-energy
// decoding indexes it with full basis states), so the reduced engine
// takes the prefix half as a sub-slice.
func (c *fusedCore) newEngine(ranks int) (*qsim.Engine, error) {
	if c.z2 {
		return qsim.NewZ2Engine(c.n, ranks, c.diag[:len(c.diag)/2], c.levels, c.idx, c.shift)
	}
	return qsim.NewEngine(c.n, ranks, c.diag, c.levels, c.idx, c.shift)
}

// Evaluate implements Ansatz. The returned state is the engine's reused
// buffer, valid until the next Evaluate; on the default Z2 path it is a
// reduced state (qsim.State with Z2Full() != 0), whose measurement
// accessors are bit-identical to the expanded statevector's.
func (c *fusedCore) Evaluate(gammas, betas []float64) (float64, *qsim.State, error) {
	if err := checkParams(c.layers, gammas, betas); err != nil {
		return 0, nil, err
	}
	return c.eng.Evaluate(gammas, betas), c.eng.State(), nil
}

// Diagonal implements Ansatz.
func (c *fusedCore) Diagonal() []float64 { return c.diag }

// Layout implements Ansatz: always identity.
func (c *fusedCore) Layout() []int { return nil }

// Report implements Ansatz: no circuit is synthesized.
func (c *fusedCore) Report() synth.Report { return synth.Report{} }

type fusedAnsatz struct {
	fusedCore
	// batch holds one serial-mode engine per batch worker, sharing the
	// read-only tables above; grown lazily by EvaluateBatch.
	batch []*qsim.Engine
}

// EvaluateBatch implements BatchEvaluator: the K parameter vectors are
// striped over min(K, GOMAXPROCS) workers, each owning a persistent
// serial-mode engine (outer parallelism saturates the cores, so inner
// kernel parallelism is disabled). Worker engines share the prepared
// cost tables; only the 2^n statevector buffer is per-worker, and it is
// reused across calls. Not safe for concurrent use with itself or
// Evaluate. The worker count is sized for one batching ansatz per
// process; callers that batch on MANY ansätze concurrently (QAOA² with
// multi-start sub-solves) should keep the product of their outer
// parallelism and K near the core count — see qaoa2.Options.Restarts.
func (a *fusedAnsatz) EvaluateBatch(gammas, betas [][]float64, energies []float64) error {
	if err := checkBatchParams(a.layers, gammas, betas, energies); err != nil {
		return err
	}
	k := len(gammas)
	workers := runtime.GOMAXPROCS(0)
	if workers > k {
		workers = k
	}
	for len(a.batch) < workers {
		eng, err := a.newEngine(1)
		if err != nil {
			return err
		}
		eng.SetSerial(true)
		a.batch = append(a.batch, eng)
	}
	if workers == 1 {
		for i := range gammas {
			energies[i] = a.batch[0].Evaluate(gammas[i], betas[i])
		}
		return nil
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < k; i += workers {
				energies[i] = a.batch[w].Evaluate(gammas[i], betas[i])
			}
		}(w)
	}
	wg.Wait()
	return nil
}
