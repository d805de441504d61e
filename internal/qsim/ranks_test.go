package qsim

import (
	"math"
	"testing"

	"qaoa2/internal/rng"
)

// distParams draws the shared deterministic parameter schedule.
func distParams(nFull, p int) (gammas, betas []float64) {
	pr := rng.New(uint64(nFull*17 + p))
	gammas = make([]float64, p)
	betas = make([]float64, p)
	for l := 0; l < p; l++ {
		gammas[l] = pr.Float64() * 2 * math.Pi
		betas[l] = pr.Float64() * math.Pi
	}
	return gammas, betas
}

// TestDistEngineMatchesKernelWalk pins the sharded engine against the
// unfused single-state kernel walk at 1e-12 — energy AND gathered
// amplitudes — across rank counts, depths, and both tile kernels, and
// gates the measured exchange volume against the closed form exactly.
// The size list crosses every local-sweep regime: slices below, at and
// above lowBlockQubits, and with local high groups live (nLocal > 10).
func TestDistEngineMatchesKernelWalk(t *testing.T) {
	saved := useMixerAsm
	defer func() { useMixerAsm = saved }()
	for _, asm := range []bool{false, saved} {
		useMixerAsm = asm
		for _, n := range []int{4, 6, 11, 12, 14, 16} {
			for p := 1; p <= 3; p++ {
				diag, levels, idx, shift := engineFixture(t, n, uint64(n*41+p))
				gammas, betas := distParams(n, p)
				want, ws := referenceEvaluate(t, n, shift, diag, gammas, betas)
				for _, ranks := range []int{1, 2, 4, 8} {
					if ranks > 1<<uint(n-1) {
						continue
					}
					eng, err := NewEngine(n, ranks, diag, levels, idx, nil)
					if err != nil {
						t.Fatal(err)
					}
					got := eng.Evaluate(gammas, betas)
					if math.Abs(got-want) > 1e-12 {
						t.Fatalf("asm=%v n=%d p=%d ranks=%d: energy %v, want %v", asm, n, p, ranks, got, want)
					}
					if d := maxAmpDiff(eng.State(), ws); d > 1e-12 {
						t.Fatalf("asm=%v n=%d p=%d ranks=%d: amplitudes deviate by %v", asm, n, p, ranks, d)
					}
					st := eng.Stats()
					if wantBytes := eng.CommBytesExpected(p); st.BytesSent != wantBytes {
						t.Fatalf("asm=%v n=%d p=%d ranks=%d: BytesSent=%d, closed form says %d",
							asm, n, p, ranks, st.BytesSent, wantBytes)
					}
					if closed := (DistStats{}).CommBytesExpected(n, ranks, p); st.BytesSent != closed {
						t.Fatalf("asm=%v n=%d p=%d ranks=%d: BytesSent=%d, DistStats closed form says %d",
							asm, n, p, ranks, st.BytesSent, closed)
					}
					if again := eng.Evaluate(gammas, betas); again != got {
						t.Fatalf("asm=%v n=%d p=%d ranks=%d: re-evaluation drifted: %v then %v",
							asm, n, p, ranks, got, again)
					}
					eng.Stop()
				}
			}
		}
	}
}

// TestDistZ2EngineMatchesKernelWalk is the reduced-variant parity pin:
// half-vector slices, mirror exchanges for the boundary rotation, full
// reconstruction through ExpandZ2 — still 1e-12 against the full walk
// at every rank count, with the exchange volume gated against the
// engine's Z2-aware closed form.
func TestDistZ2EngineMatchesKernelWalk(t *testing.T) {
	saved := useMixerAsm
	defer func() { useMixerAsm = saved }()
	for _, asm := range []bool{false, saved} {
		useMixerAsm = asm
		for _, nFull := range []int{4, 6, 11, 12, 14, 16} {
			for p := 1; p <= 3; p++ {
				diag, levels, idx, shift := z2Fixture(t, nFull, uint64(nFull*43+p))
				gammas, betas := distParams(nFull, p)
				want, ws := referenceEvaluate(t, nFull, shift, diag, gammas, betas)
				half := 1 << uint(nFull-1)
				for _, ranks := range []int{1, 2, 4, 8} {
					if ranks > 1<<uint(nFull-2) {
						continue
					}
					eng, err := NewZ2Engine(nFull, ranks, diag[:half], levels, idx[:half], nil)
					if err != nil {
						t.Fatal(err)
					}
					got := eng.Evaluate(gammas, betas)
					if math.Abs(got-want) > 1e-12 {
						t.Fatalf("asm=%v n=%d p=%d ranks=%d: energy %v, want %v", asm, nFull, p, ranks, got, want)
					}
					red := eng.State()
					if red.Z2Full() != nFull || red.Len() != half {
						t.Fatalf("asm=%v n=%d p=%d ranks=%d: state not reduced: Z2Full=%d Len=%d",
							asm, nFull, p, ranks, red.Z2Full(), red.Len())
					}
					if d := maxAmpDiff(red.ExpandZ2(), ws); d > 1e-12 {
						t.Fatalf("asm=%v n=%d p=%d ranks=%d: expanded amplitudes deviate by %v", asm, nFull, p, ranks, d)
					}
					if st, wantBytes := eng.Stats(), eng.CommBytesExpected(p); st.BytesSent != wantBytes {
						t.Fatalf("asm=%v n=%d p=%d ranks=%d: BytesSent=%d, closed form says %d",
							asm, nFull, p, ranks, st.BytesSent, wantBytes)
					}
					eng.Stop()
				}
			}
		}
	}
}

// TestDistEngineDensePhase covers the dense shift-table phase path
// (the indexed path dominates the matrix tests above).
func TestDistEngineDensePhase(t *testing.T) {
	const n, p = 12, 2
	diag, _, _, shift := engineFixture(t, n, 77)
	gammas, betas := distParams(n, p)
	want, ws := referenceEvaluate(t, n, shift, diag, gammas, betas)
	for _, ranks := range []int{1, 4} {
		eng, err := NewEngine(n, ranks, diag, nil, nil, shift)
		if err != nil {
			t.Fatal(err)
		}
		if got := eng.Evaluate(gammas, betas); math.Abs(got-want) > 1e-12 {
			t.Fatalf("ranks=%d: energy %v, want %v", ranks, got, want)
		}
		if d := maxAmpDiff(eng.State(), ws); d > 1e-12 {
			t.Fatalf("ranks=%d: amplitudes deviate by %v", ranks, d)
		}
		eng.Stop()
	}

	zdiag, _, _, zshift := z2Fixture(t, n, 79)
	zwant, zws := referenceEvaluate(t, n, zshift, zdiag, gammas, betas)
	half := 1 << uint(n-1)
	eng, err := NewZ2Engine(n, 4, zdiag[:half], nil, nil, zshift[:half])
	if err != nil {
		t.Fatal(err)
	}
	if got := eng.Evaluate(gammas, betas); math.Abs(got-zwant) > 1e-12 {
		t.Fatalf("z2 dense: energy %v, want %v", got, zwant)
	}
	if d := maxAmpDiff(eng.State().ExpandZ2(), zws); d > 1e-12 {
		t.Fatalf("z2 dense: expanded amplitudes deviate by %v", d)
	}
	eng.Stop()
}

func TestDistEngineZeroLayers(t *testing.T) {
	diag, levels, idx, _ := engineFixture(t, 6, 5)
	eng, err := NewEngine(6, 4, diag, levels, idx, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()
	got := eng.Evaluate(nil, nil)
	want := 0.0
	for _, v := range diag {
		want += v / float64(len(diag))
	}
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("p=0 energy %v, want uniform mean %v", got, want)
	}
	if st := eng.Stats(); st.BytesSent != 0 || st.MessagesSent != 0 || st.CommGates != 0 {
		t.Fatalf("p=0 moved data: %+v", st)
	}
}

// TestDistEngineStatsLedger hand-computes the fused comm pattern's
// ledger: 8 qubits over 4 ranks (2 global qubits, 64-amplitude slices) at p=2 runs one
// fused local sweep and two exchange rounds per layer — every exchange
// round is 4 slice messages of 64·16 bytes.
func TestDistEngineStatsLedger(t *testing.T) {
	diag, levels, idx, _ := engineFixture(t, 8, 11)
	eng, err := NewEngine(8, 4, diag, levels, idx, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()
	gammas, betas := distParams(8, 2)
	eng.Evaluate(gammas, betas)
	want := DistStats{
		LocalGates:   2,         // 1 fused low sweep per layer (no high groups at 6 local qubits)
		CommGates:    4,         // 2 global qubits × 2 layers
		MessagesSent: 16,        // 4 exchange rounds × 4 ranks
		BytesSent:    16 * 1024, // 16 messages × 64 amplitudes × 16 bytes
	}
	if got := eng.Stats(); got != want {
		t.Fatalf("ledger %+v, want %+v", got, want)
	}
	if closed := (DistStats{}).CommBytesExpected(8, 4, 2); closed != want.BytesSent {
		t.Fatalf("closed form %d, want %d", closed, want.BytesSent)
	}
}

// TestDistZ2EngineStatsLedger: the reduced schedule adds one mirror
// exchange per layer AFTER the first (the first layer synthesizes
// phase·|+⟩ and reads no partner amplitudes). 8 full qubits over 4
// ranks reduce to 7 sharded qubits in 32-amplitude slices.
func TestDistZ2EngineStatsLedger(t *testing.T) {
	diag, levels, idx, _ := z2Fixture(t, 8, 13)
	half := 1 << 7
	eng, err := NewZ2Engine(8, 4, diag[:half], levels, idx[:half], nil)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()
	gammas, betas := distParams(8, 3)
	eng.Evaluate(gammas, betas)
	want := DistStats{
		LocalGates:   3,        // 1 fused mirror sweep per layer
		CommGates:    8,        // 2 global qubits × 3 layers + 2 mirror exchanges
		MessagesSent: 32,       // 8 exchange rounds × 4 ranks
		BytesSent:    32 * 512, // 32 messages × 32 amplitudes × 16 bytes
	}
	if got := eng.Stats(); got != want {
		t.Fatalf("ledger %+v, want %+v", got, want)
	}
	if closed := eng.CommBytesExpected(3); closed != want.BytesSent {
		t.Fatalf("closed form %d, want %d", closed, want.BytesSent)
	}
}

// TestDistEngineZeroAllocLocal pins the rank-local path: at ranks=1
// the sweep runs inline on the caller's goroutine with no exchanges,
// and a warm evaluation must not allocate.
func TestDistEngineZeroAllocLocal(t *testing.T) {
	diag, levels, idx, _ := engineFixture(t, 12, 21)
	eng, err := NewEngine(12, 1, diag, levels, idx, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()
	gammas, betas := distParams(12, 3)
	eng.Evaluate(gammas, betas) // warm up rank scratch
	if allocs := testing.AllocsPerRun(20, func() {
		eng.Evaluate(gammas, betas)
	}); allocs != 0 {
		t.Fatalf("rank-local evaluation allocates %v times per run, want 0", allocs)
	}
}

func TestDistEngineValidation(t *testing.T) {
	diag, levels, idx, shift := engineFixture(t, 4, 3)
	if _, err := NewEngine(4, 3, diag, levels, idx, nil); err == nil {
		t.Fatal("non-power-of-two rank count accepted")
	}
	if _, err := NewEngine(4, 16, diag, levels, idx, nil); err == nil {
		t.Fatal("rank count leaving no local qubits accepted")
	}
	if _, err := NewEngine(4, 2, diag[:7], levels, idx, nil); err == nil {
		t.Fatal("short diagonal accepted")
	}
	if _, err := NewEngine(4, 2, diag, levels, idx, shift); err == nil {
		t.Fatal("both phase forms accepted")
	}
	if _, err := NewEngine(4, 2, diag, nil, nil, nil); err == nil {
		t.Fatal("no phase form accepted")
	}
	if _, err := NewEngine(4, 2, diag, levels, nil, nil); err == nil {
		t.Fatal("levels without index accepted")
	}
	if _, err := NewEngine(0, 1, diag, levels, idx, nil); err == nil {
		t.Fatal("zero qubits accepted")
	}
	half := len(diag) / 2
	if _, err := NewZ2Engine(4, 8, diag[:half], levels, idx[:half], nil); err == nil {
		t.Fatal("z2 rank count beyond half-vector accepted")
	}
	if _, err := NewZ2Engine(1, 1, diag[:1], levels, idx[:1], nil); err == nil {
		t.Fatal("z2 single qubit accepted")
	}
}

func BenchmarkDistEngine16Q3PRanks1(b *testing.B) { benchmarkDistEngine(b, 16, 1) }
func BenchmarkDistEngine16Q3PRanks4(b *testing.B) { benchmarkDistEngine(b, 16, 4) }

func benchmarkDistEngine(b *testing.B, n, ranks int) {
	diag, levels, idx, _ := engineFixture(b, n, 9)
	eng, err := NewEngine(n, ranks, diag, levels, idx, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Stop()
	gammas, betas := distParams(n, 3)
	eng.Evaluate(gammas, betas)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Evaluate(gammas, betas)
	}
}
