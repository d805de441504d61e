package qsim

import (
	"math"
	"testing"

	"qaoa2/internal/rng"
)

// engineFixture builds a random "cut-like" diagonal with few distinct
// integer levels plus its factored and dense phase forms.
func engineFixture(t testing.TB, n int, seed uint64) (diag, levels []float64, idx []int32, shift []float64) {
	t.Helper()
	r := rng.New(seed)
	size := 1 << uint(n)
	nLevels := 7
	lv := make([]float64, nLevels)
	for j := range lv {
		lv[j] = float64(j) - 2.5 // includes negative shifts, like cut − W/2
	}
	diag = make([]float64, size)
	shift = make([]float64, size)
	idx = make([]int32, size)
	for i := 0; i < size; i++ {
		k := int32(r.Uint64() % uint64(nLevels))
		idx[i] = k
		shift[i] = lv[k]
		diag[i] = lv[k] + 2.5 // the unshifted expectation table
	}
	return diag, lv, idx, shift
}

// referenceEvaluate is the unfused kernel walk the engine must match:
// FillPlus, then per layer one phase pass and n ApplyRX calls, then
// ExpectDiagonal.
func referenceEvaluate(t testing.TB, n int, shift, diag, gammas, betas []float64) (float64, *State) {
	t.Helper()
	s, err := NewState(n)
	if err != nil {
		t.Fatal(err)
	}
	s.FillPlus()
	for l := range gammas {
		s.ApplyPhaseDiagonal(gammas[l], shift)
		for q := 0; q < n; q++ {
			s.ApplyRX(q, 2*betas[l])
		}
	}
	return s.ExpectDiagonal(diag), s
}

func TestEngineMatchesKernelWalk(t *testing.T) {
	for _, n := range []int{1, 3, 6, 9, 11, 14, 16} {
		for p := 1; p <= 3; p++ {
			diag, levels, idx, shift := engineFixture(t, n, uint64(n*31+p))
			pr := rng.New(uint64(n*7 + p))
			gammas := make([]float64, p)
			betas := make([]float64, p)
			for l := 0; l < p; l++ {
				gammas[l] = pr.Float64() * 2 * math.Pi
				betas[l] = pr.Float64() * math.Pi
			}
			want, ws := referenceEvaluate(t, n, shift, diag, gammas, betas)

			for _, mode := range []string{"indexed", "dense"} {
				var eng *Engine
				var err error
				if mode == "indexed" {
					eng, err = NewEngine(n, 1, diag, levels, idx, nil)
				} else {
					eng, err = NewEngine(n, 1, diag, nil, nil, shift)
				}
				if err != nil {
					t.Fatal(err)
				}
				got := eng.Evaluate(gammas, betas)
				if math.Abs(got-want) > 1e-12 {
					t.Fatalf("n=%d p=%d %s: energy %v, want %v", n, p, mode, got, want)
				}
				if d := maxAmpDiff(eng.State(), ws); d > 1e-12 {
					t.Fatalf("n=%d p=%d %s: amplitudes deviate by %v", n, p, mode, d)
				}
				// A second evaluation must reproduce the first (buffer
				// reuse across calls, first-layer in-place synthesis).
				if again := eng.Evaluate(gammas, betas); again != got {
					t.Fatalf("n=%d p=%d %s: re-evaluation drifted: %v then %v", n, p, mode, got, again)
				}
			}
		}
	}
}

func TestEngineZeroLayers(t *testing.T) {
	diag, levels, idx, _ := engineFixture(t, 5, 3)
	eng, err := NewEngine(5, 1, diag, levels, idx, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := eng.Evaluate(nil, nil)
	want := 0.0
	for _, v := range diag {
		want += v / float64(len(diag))
	}
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("p=0 energy %v, want uniform mean %v", got, want)
	}
}

func TestEngineRejectsBadShapes(t *testing.T) {
	diag, levels, idx, shift := engineFixture(t, 4, 9)
	if _, err := NewEngine(4, 1, diag[:3], levels, idx, nil); err == nil {
		t.Fatal("short diagonal accepted")
	}
	if _, err := NewEngine(4, 1, diag, levels, idx, shift); err == nil {
		t.Fatal("both phase forms accepted")
	}
	if _, err := NewEngine(4, 1, diag, nil, nil, nil); err == nil {
		t.Fatal("no phase form accepted")
	}
	if _, err := NewEngine(4, 1, diag, levels, idx[:7], nil); err == nil {
		t.Fatal("short phase index accepted")
	}
	if _, err := NewEngine(4, 1, diag, levels, nil, shift); err == nil {
		t.Fatal("levels without index accepted")
	}
}

// TestEngineZeroAlloc pins the acceptance criterion: steady-state
// objective evaluations allocate nothing.
func TestEngineZeroAlloc(t *testing.T) {
	diag, levels, idx, shift := engineFixture(t, 12, 17)
	gammas := []float64{0.3, 1.1, 0.7}
	betas := []float64{0.9, 0.2, 0.5}
	for _, mode := range []string{"indexed", "dense"} {
		var eng *Engine
		var err error
		if mode == "indexed" {
			eng, err = NewEngine(12, 1, diag, levels, idx, nil)
		} else {
			eng, err = NewEngine(12, 1, diag, nil, nil, shift)
		}
		if err != nil {
			t.Fatal(err)
		}
		eng.Evaluate(gammas, betas) // warm up lazy growth, if any
		allocs := testing.AllocsPerRun(20, func() {
			eng.Evaluate(gammas, betas)
		})
		if allocs != 0 {
			t.Fatalf("%s: Evaluate allocates %v objects per call, want 0", mode, allocs)
		}
	}
}

// TestEngineOnExplicitPool runs fused evaluations through a private
// multi-worker pool (the -race coverage for the chunked expectation
// reduction).
func TestEngineOnExplicitPool(t *testing.T) {
	pool := newWorkerPool(4)
	defer pool.Stop()
	n := 15
	diag, levels, idx, shift := engineFixture(t, n, 23)
	gammas := []float64{0.4, 0.8}
	betas := []float64{1.2, 0.3}

	eng, err := NewEngine(n, 1, diag, levels, idx, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng.state.pool = pool
	got := eng.Evaluate(gammas, betas)
	want, ws := referenceEvaluate(t, n, shift, diag, gammas, betas)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("pooled energy %v, want %v", got, want)
	}
	if d := maxAmpDiff(eng.State(), ws); d > 1e-12 {
		t.Fatalf("pooled amplitudes deviate by %v", d)
	}
}

func BenchmarkEngineEvaluate16p3(b *testing.B) {
	diag, levels, idx, _ := engineFixture(b, 16, 41)
	eng, err := NewEngine(16, 1, diag, levels, idx, nil)
	if err != nil {
		b.Fatal(err)
	}
	gammas := []float64{0.35, 0.7, 1.05}
	betas := []float64{0.525, 0.35, 0.175}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Evaluate(gammas, betas)
	}
}
