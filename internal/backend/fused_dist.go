package backend

import (
	"fmt"

	"qaoa2/internal/graph"
	"qaoa2/internal/qsim"
)

// defaultDistRanks is the rank count "fused-dist" selects when no
// explicit ":N" suffix (or Ranks field) is given.
const defaultDistRanks = 4

// FusedDist is the sharded variant of Fused: the same compiled cost
// diagonal and the same qsim.Engine, built over a power-of-two rank
// count on the in-process hpc comm world. Cost layers stay rank-local
// (diagonals never communicate); only the top log2(ranks) qubits' mixer
// rotations run as pairwise slice exchanges. The Z2 symmetry reduction
// applies exactly as on Fused (cut tables are always spin-flip
// symmetric; QAOA2_NOZ2 or Full disables it), and parity against the
// Dense gate walk is pinned at 1e-12 at every rank count by the backend
// tests.
//
// Rank count is a CONFIG knob, not a capacity requirement: sub-graphs
// too small to give every rank at least one local qubit are clamped to
// the largest valid power of two, so QAOA² leaf solves of any size can
// run under one backend selection. At Ranks=1 the engine runs the
// single-slice sweep inline, exactly as Fused does (bit-identical, held
// at fused-z2 cost by the bench ratio gate); the ranks>1
// configurations model the paper's §4 multi-node decomposition and are
// metered through DistStats. Unlike Fused, FusedDist has no batch
// evaluation path.
type FusedDist struct {
	// Ranks is the requested rank count (power of two; 0 selects
	// defaultDistRanks).
	Ranks int
	// Full disables the Z2 symmetry reduction.
	Full bool
}

// Name implements Backend: "fused-dist:R" with the requested rank
// count, matching the ByName spelling.
func (f FusedDist) Name() string {
	return fmt.Sprintf("fused-dist:%d", f.ranks())
}

func (f FusedDist) ranks() int {
	if f.Ranks == 0 {
		return defaultDistRanks
	}
	return f.Ranks
}

// Prepare implements Backend: compiles the cost diagonal exactly as
// Fused does, then builds the persistent sharded engine with its rank
// goroutines.
func (f FusedDist) Prepare(g *graph.Graph, cfg Config) (Ansatz, error) {
	if err := checkGraph(g, cfg); err != nil {
		return nil, err
	}
	ranks := f.ranks()
	if ranks < 1 || ranks&(ranks-1) != 0 {
		return nil, fmt.Errorf("backend: fused-dist rank count %d is not a power of two", ranks)
	}
	core := newFusedCore(g.N(), cfg.Layers, CutTable(g, nil), g.TotalWeight()/2, !f.Full)
	nEff := core.n
	if core.z2 {
		nEff--
	}
	// Clamp: every rank must keep at least one local qubit of the
	// (possibly reduced) index space. Small QAOA² leaves routinely hit
	// this; the backend stays selectable at any sub-graph size.
	if max := 1 << uint(nEff-1); ranks > max {
		ranks = max
	}
	a := &fusedDistAnsatz{fusedCore: core, ranks: ranks}
	var err error
	if a.eng, err = a.newEngine(ranks); err != nil {
		return nil, err
	}
	return a, nil
}

type fusedDistAnsatz struct {
	fusedCore
	ranks int // effective (clamped) rank count
}

// Ranks returns the effective rank count after small-graph clamping.
func (a *fusedDistAnsatz) Ranks() int { return a.ranks }

// Stats exposes the engine's communication ledger for scaling
// experiments and bench provenance.
func (a *fusedDistAnsatz) Stats() qsim.DistStats { return a.eng.Stats() }
