// Parity and selection tests for the sharded fused-dist backend: the
// Dense gate walk stays the oracle at every rank count, exactly as for
// the single-slice fused paths.
package backend_test

import (
	"math"
	"math/cmplx"
	"testing"

	"qaoa2/internal/backend"
	"qaoa2/internal/graph"
	"qaoa2/internal/qsim"
	"qaoa2/internal/rng"
)

func TestFusedDistMatchesDense(t *testing.T) {
	t.Setenv("QAOA2_NOZ2", "")
	for _, n := range []int{5, 8, 13} {
		for seed := uint64(0); seed < 2; seed++ {
			g := graph.ErdosRenyi(n, 0.45, graph.UniformWeights, rng.New(seed*53+uint64(n)))
			if g.M() == 0 {
				continue
			}
			for p := 1; p <= 2; p++ {
				dAns, err := backend.Dense{}.Prepare(g, backend.Config{Layers: p})
				if err != nil {
					t.Fatal(err)
				}
				pr := rng.New(seed ^ 0xd157)
				gammas := make([]float64, p)
				betas := make([]float64, p)
				for l := range gammas {
					gammas[l] = pr.Float64() * 2 * math.Pi
					betas[l] = pr.Float64() * math.Pi
				}
				eD, sD, err := dAns.Evaluate(gammas, betas)
				if err != nil {
					t.Fatal(err)
				}
				for _, ranks := range []int{1, 2, 4} {
					fAns, err := backend.FusedDist{Ranks: ranks}.Prepare(g, backend.Config{Layers: p})
					if err != nil {
						t.Fatal(err)
					}
					eF, sF, err := fAns.Evaluate(gammas, betas)
					if err != nil {
						t.Fatal(err)
					}
					if math.Abs(eD-eF) > 1e-12 {
						t.Fatalf("n=%d seed=%d p=%d ranks=%d: energies %v vs %v", n, seed, p, ranks, eD, eF)
					}
					full := sF.ExpandZ2()
					for i := 0; i < sD.Len(); i++ {
						if d := cmplx.Abs(sD.Amp(uint64(i)) - full.Amp(uint64(i))); d > 1e-12 {
							t.Fatalf("n=%d seed=%d p=%d ranks=%d: amp %d differs by %v", n, seed, p, ranks, i, d)
						}
					}
					if cD, cF := decodeArgmax(g, sD), decodeArgmax(g, full); cD != cF {
						t.Fatalf("n=%d seed=%d p=%d ranks=%d: decoded cuts %v vs %v", n, seed, p, ranks, cD, cF)
					}
				}
				// Single node is ranks=1: fused-dist:1 and fused run the same
				// inline sweep, so energies and amplitudes agree bit for bit,
				// with the Z2 reduction and without it.
				eval := func(b backend.Backend) (float64, *qsim.State) {
					t.Helper()
					ans, err := b.Prepare(g, backend.Config{Layers: p})
					if err != nil {
						t.Fatal(err)
					}
					e, s, err := ans.Evaluate(gammas, betas)
					if err != nil {
						t.Fatal(err)
					}
					return e, s
				}
				for _, full := range []bool{false, true} {
					eS, sS := eval(backend.Fused{Full: full})
					e1, s1 := eval(backend.FusedDist{Ranks: 1, Full: full})
					if eS != e1 {
						t.Fatalf("n=%d seed=%d p=%d full=%v: fused-dist:1 energy %v, fused %v", n, seed, p, full, e1, eS)
					}
					if s1.Len() != sS.Len() || s1.Z2Full() != sS.Z2Full() {
						t.Fatalf("n=%d seed=%d p=%d full=%v: state shapes differ", n, seed, p, full)
					}
					for i := 0; i < sS.Len(); i++ {
						if s1.Amp(uint64(i)) != sS.Amp(uint64(i)) {
							t.Fatalf("n=%d seed=%d p=%d full=%v: amp %d is %v on fused-dist:1, %v on fused",
								n, seed, p, full, i, s1.Amp(uint64(i)), sS.Amp(uint64(i)))
						}
					}
				}
			}
		}
	}
}

func TestFusedDistByName(t *testing.T) {
	b, err := backend.ByName("fused-dist")
	if err != nil {
		t.Fatal(err)
	}
	if b.Name() != "fused-dist:4" {
		t.Fatalf("default spelling resolved to %q", b.Name())
	}
	b, err = backend.ByName("fused-dist:8")
	if err != nil {
		t.Fatal(err)
	}
	if b.Name() != "fused-dist:8" {
		t.Fatalf("fused-dist:8 resolved to %q", b.Name())
	}
	for _, bad := range []string{"fused-dist:3", "fused-dist:0", "fused-dist:-2", "fused-dist:x", "fused-dist:"} {
		if _, err := backend.ByName(bad); err == nil {
			t.Fatalf("%q accepted", bad)
		}
	}
}

// TestFusedDistClampsRanks: a sub-graph too small for the requested
// rank count must still prepare (QAOA² leaves can be tiny) — the
// effective rank count clamps to the largest valid power of two.
func TestFusedDistClampsRanks(t *testing.T) {
	t.Setenv("QAOA2_NOZ2", "")
	g := graph.ErdosRenyi(3, 0.9, graph.Unweighted, rng.New(5))
	ans, err := backend.FusedDist{Ranks: 8}.Prepare(g, backend.Config{Layers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ranker, ok := ans.(interface{ Ranks() int })
	if !ok {
		t.Fatal("dist ansatz does not expose Ranks")
	}
	// 3 nodes reduce to a 2-qubit index space: at most 2 ranks keep a
	// local qubit each.
	if got := ranker.Ranks(); got != 2 {
		t.Fatalf("effective ranks %d, want 2", got)
	}
	if _, _, err := ans.Evaluate([]float64{0.4}, []float64{0.7}); err != nil {
		t.Fatal(err)
	}
	if _, err := (backend.FusedDist{Ranks: 3}).Prepare(g, backend.Config{Layers: 1}); err == nil {
		t.Fatal("non-power-of-two Ranks field accepted")
	}
}

// TestFusedDistZ2OptOut mirrors TestFusedZ2OptOut for the sharded
// backend.
func TestFusedDistZ2OptOut(t *testing.T) {
	g := graph.ErdosRenyi(7, 0.5, graph.Unweighted, rng.New(11))
	gammas, betas := []float64{0.4}, []float64{0.9}
	evaluate := func(b backend.Backend) *qsim.State {
		t.Helper()
		ans, err := b.Prepare(g, backend.Config{Layers: 1})
		if err != nil {
			t.Fatal(err)
		}
		_, s, err := ans.Evaluate(gammas, betas)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	t.Setenv("QAOA2_NOZ2", "")
	if s := evaluate(backend.FusedDist{Ranks: 2}); s.Z2Full() != g.N() {
		t.Fatalf("default fused-dist state not reduced: Z2Full=%d", s.Z2Full())
	}
	if s := evaluate(backend.FusedDist{Ranks: 2, Full: true}); s.Z2Full() != 0 || s.Len() != 1<<uint(g.N()) {
		t.Fatalf("full fused-dist state reduced: Z2Full=%d Len=%d", s.Z2Full(), s.Len())
	}
	t.Setenv("QAOA2_NOZ2", "1")
	if s := evaluate(backend.FusedDist{Ranks: 2}); s.Z2Full() != 0 || s.Len() != 1<<uint(g.N()) {
		t.Fatalf("QAOA2_NOZ2 fused-dist state reduced: Z2Full=%d Len=%d", s.Z2Full(), s.Len())
	}
}
