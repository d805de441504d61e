package qsim

import (
	"fmt"
	"math"
	"sync"

	"qaoa2/internal/hpc/comm"
)

// Engine is the fused-layer QAOA evaluator: a persistent execution
// object prepared once per (qubit count, cost diagonal, rank count) that
// runs whole p-layer objective evaluations with the minimum number of
// statevector sweeps. It is the engine behind internal/backend's fused
// paths; the optimizer inner loop calls Evaluate thousands of times per
// sub-graph.
//
// Fusion layout per layer (blocked mixer geometry of mixer.go):
//
//   - The cost-phase pass e^{-iγD} is folded into the LOW mixer sweep's
//     tile load: each cache-resident tile is phased and butterflied in
//     one touch. On the first layer the |+⟩^⊗n preparation folds in
//     too — amplitudes are synthesized in place (phase · 2^{-n/2}), so
//     the evaluation never does a separate FillPlus sweep.
//
//   - The energy ⟨ψ|D|ψ⟩ is folded into the LAST sweep of the last
//     layer, accumulated per chunk while the tiles are still in cache,
//     so no separate ExpectDiagonal sweep runs either.
//
// A p-layer evaluation therefore touches the state p·⌈1 + (n−10)/6⌉
// times instead of the p·(1+n) + 2 sweeps of the unfused kernel walk.
//
// Ranks. The 2^nEff-amplitude vector (nEff = n, or nFull−1 on the
// Z2-reduced variant) is split into ranks = 2^pg contiguous slices; rank
// r owns global indices [r·2^(nEff−pg), (r+1)·2^(nEff−pg)). Every slice
// runs the same fused sweep (shard) with its global offset into the
// cost tables, so the low nEff−pg qubits and the diagonal phases stay
// rank-local. Only the top pg "global" qubits' RX rotations cross
// slices: each is one pairwise slice exchange between partner ranks
// r ↔ r^bit over an hpc comm world followed by an element-wise
// butterfly (ranks.go) — the decomposition behind the paper's §4
// scaling result. Single-node is ranks=1: the one slice is the whole
// vector and Evaluate runs it inline on the caller's goroutine, with no
// rank goroutine, channel or comm world.
//
// Allocation-freedom: the pass bodies are method values bound once at
// construction and parameterized through shard fields; the per-layer
// phase table, the expectation partials and the dispatch WaitGroup are
// hoisted into the shard, so a ranks=1 evaluation allocates nothing.
// An Engine is NOT safe for concurrent use — batch drivers create one
// Engine per worker (see SetSerial).
type Engine struct {
	state  *State
	sh     *engineShared
	shards []*shard // shards[r] sweeps rank r's slice

	// Multi-rank execution (nil/zero at ranks == 1): rank goroutines,
	// their request/result channels and the measured traffic ledger.
	world    *comm.World
	start    []chan evalReq
	results  chan rankResult
	partials []float64 // per-rank energy partials, indexed by rank
	traffic  DistStats // MessagesSent/BytesSent measured across Evaluate calls
	stopOnce sync.Once
}

// engineShared is the configuration and table set shared by all
// shards. Rank goroutines reference ONLY this struct (plus their shard,
// channels and comm handles), never the Engine itself — so an abandoned
// multi-rank engine stays collectible and its finalizer can stop them.
type engineShared struct {
	state    *State // the whole vector: kernel pool and serial mode
	nEff     int    // index-space qubits (nFull−1 when reduced)
	nLocal   int    // rank-local qubits: nEff − pg
	pg       int    // log2(ranks): global qubits routed through exchanges
	ranks    int
	sliceLen int  // amplitudes per rank: 2^nLocal
	z2       bool // slices hold the Z2-reduced half-vector
	m0       int  // low-group qubit count (capped at nLocal)

	diag   []float64 // GLOBAL expectation diagonal (reduced length when z2)
	levels []float64 // distinct phase values (indexed path)
	idx    []int32   // GLOBAL phase index (indexed path)
	shift  []float64 // GLOBAL dense phase diagonal (fallback path)

	globalLen float64 // 2^nEff, the first-layer amplitude normalizer

	// Fused-sweep ledger, written by rank 0 only (every rank runs the
	// identical schedule); read after Evaluate returns.
	localSweeps int
	commSweeps  int
}

// shard is one rank's sweep state over its slice of the vector.
type shard struct {
	sh   *engineShared
	rank int
	base int // global amplitude offset of this slice
	comm *comm.Comm
	amps []complex128 // this rank's slice of the state
	recv []complex128 // exchange receive buffer (nil at ranks == 1)

	wg       sync.WaitGroup
	phases   []complex128   // per-layer phase scratch (own copy per rank)
	partials []float64      // per-chunk energy accumulators
	mirrors  [][]complex128 // per-worker mirror-pair scratch (z2)

	// Current pass parameters, read by the prepared bodies.
	gamma  float64 // cost angle of the current layer
	c, sn  float64 // cos β, sin β of the current layer
	first  bool    // layer 0: synthesize phase·|+⟩ in place of loading
	expect bool    // accumulate ⟨D⟩ during this pass
	g0, m  int     // current local high-group range [g0, g0+m)
	bit0   bool    // this rank holds the 0-side of the current global butterfly

	lowBody    func(w, start, end int)
	highBody   func(w, start, end int)
	globalBody func(w, start, end int)
}

// NewEngine builds an evaluator for an n-qubit cost diagonal over a
// power-of-two rank count (1 for single-node). diag is the expectation
// table (len 2^n). The phase diagonal — the cost table shifted to
// reproduce the gate walk's global phase — is given either factored as
// (levels, idx) with phase[i] = levels[idx[i]] (the indexed fast path:
// one Sincos per distinct value) or dense as shift (one Sincos per
// amplitude); exactly one form must be non-nil.
func NewEngine(n, ranks int, diag []float64, levels []float64, idx []int32, shift []float64) (*Engine, error) {
	s, err := NewState(n)
	if err != nil {
		return nil, err
	}
	return newEngine(s, ranks, diag, levels, idx, shift)
}

// NewZ2Engine builds a symmetry-reduced evaluator for an nFull-qubit
// Z2-symmetric cost diagonal (diagonal(i) == diagonal(~i), which holds
// for every MaxCut cut table): the engine stores only the 2^(nFull−1)
// even-sector amplitudes (z2.go) and runs every fused sweep on the
// half-vector. All tables are the REDUCED prefixes — diag, idx and
// shift have 2^(nFull−1) entries, i.e. fullTable[:2^(nFull−1)], since
// representatives index the prefix directly.
//
// The mixer layer on the reduced state is the blocked butterfly on the
// nFull−1 effective qubits plus the boundary rotation of qubit nFull−1,
// which acts through the pairing i ↔ ~i; the engine fuses the boundary
// level into the mirrored low sweep (runMirrorChunk), so a layer still
// costs ⌈2 + (n−11)/6⌉ sweeps — on half the amplitudes. On multi-rank
// layouts the partner tile of a mirror pair lives on rank ranks−1−r and
// arrives through one mirror slice exchange per layer (skipped on the
// first layer, whose phased-|+⟩ synthesis reads no amplitudes).
// Requires ranks ≤ 2^(nFull−2) so every rank keeps a local qubit.
func NewZ2Engine(nFull, ranks int, diag []float64, levels []float64, idx []int32, shift []float64) (*Engine, error) {
	s, err := NewZ2State(nFull)
	if err != nil {
		return nil, err
	}
	return newEngine(s, ranks, diag, levels, idx, shift)
}

// newEngine wires an evaluator over an allocated state buffer; table
// lengths must match the state (for a Z2-reduced state, the halved
// index space).
func newEngine(s *State, ranks int, diag []float64, levels []float64, idx []int32, shift []float64) (*Engine, error) {
	nEff, size := s.N(), s.Len()
	pg := 0
	for 1<<uint(pg) < ranks {
		pg++
	}
	if ranks < 1 || 1<<uint(pg) != ranks {
		return nil, fmt.Errorf("qsim: engine rank count %d is not a power of two", ranks)
	}
	if pg > nEff-1 {
		return nil, fmt.Errorf("qsim: %d ranks leave no local qubits on a %d-qubit slice space (need ranks ≤ %d)",
			ranks, nEff, 1<<uint(nEff-1))
	}
	if len(diag) != size {
		return nil, fmt.Errorf("qsim: engine diagonal has %d entries, want %d", len(diag), size)
	}
	indexed := levels != nil || idx != nil
	if indexed && (levels == nil || idx == nil) {
		return nil, fmt.Errorf("qsim: engine phase levels and index must be given together")
	}
	if indexed == (shift != nil) {
		return nil, fmt.Errorf("qsim: engine needs exactly one of (levels, idx) or shift")
	}
	if indexed && len(idx) != size {
		return nil, fmt.Errorf("qsim: engine phase index has %d entries, want %d", len(idx), size)
	}
	if shift != nil && len(shift) != size {
		return nil, fmt.Errorf("qsim: engine phase diagonal has %d entries, want %d", len(shift), size)
	}

	sh := &engineShared{
		state:     s,
		nEff:      nEff,
		nLocal:    nEff - pg,
		pg:        pg,
		ranks:     ranks,
		sliceLen:  size / ranks,
		z2:        s.Z2Full() != 0,
		diag:      diag,
		levels:    levels,
		idx:       idx,
		shift:     shift,
		globalLen: float64(size),
	}
	sh.m0 = sh.nLocal
	if sh.m0 > lowBlockQubits {
		sh.m0 = lowBlockQubits
	}
	if sh.z2 && sh.m0 == lowBlockQubits {
		// The mirror sweep works on a 2-tile scratch buffer; halving the
		// tile keeps the pair at 16 KiB — the same L1 working set the
		// full engine's low sweep was sized for.
		sh.m0 = lowBlockQubits - 1
	}
	workers := 1
	if p := s.kernelPool(); p != nil {
		workers = p.workers
	}
	e := &Engine{state: s, sh: sh, shards: make([]*shard, ranks)}
	for r := range e.shards {
		d := &shard{
			sh:       sh,
			rank:     r,
			base:     r * sh.sliceLen,
			amps:     s.amps[r*sh.sliceLen : (r+1)*sh.sliceLen],
			phases:   make([]complex128, len(levels)),
			partials: make([]float64, workers),
		}
		d.lowBody = d.runLowChunk
		if sh.z2 {
			d.mirrors = mirrorScratch(workers, sh.m0)
			d.lowBody = d.runMirrorChunk
		}
		d.highBody = d.runHighChunk
		e.shards[r] = d
	}
	if ranks > 1 {
		if err := e.startRanks(); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// mirrorScratch allocates one mirror-pair buffer per worker. The
// buffers live on the heap rather than the chunk bodies' stacks so the
// vector kernel sees the same allocator alignment as the statevector
// itself.
func mirrorScratch(workers, m0 int) [][]complex128 {
	sc := make([][]complex128, workers)
	for i := range sc {
		sc[i] = make([]complex128, 2<<uint(m0))
	}
	return sc
}

// State returns the engine's statevector: the rank slices alias one
// contiguous backing array, so it is complete and current after every
// Evaluate with no gather at any rank count (valid until the next
// Evaluate). On the Z2-reduced variant it is a reduced state whose
// measurement accessors report full-space results.
func (e *Engine) State() *State { return e.state }

// Ranks returns the rank count.
func (e *Engine) Ranks() int { return e.sh.ranks }

// SetSerial forces single-goroutine kernel execution (see
// State.SetSerial); batch drivers set it on their per-worker engines.
func (e *Engine) SetSerial(serial bool) { e.state.SetSerial(serial) }

// Evaluate runs the full p-layer fused evaluation at (γ⃗, β⃗) — the
// ansatz Π_l RX(2β_l)^⊗n · e^{-iγ_l D'} |+⟩^⊗n — and returns the exact
// energy ⟨ψ|D|ψ⟩. len(gammas) must equal len(betas); p = 0 degenerates
// to ⟨+|D|+⟩. At ranks == 1 the sweep runs inline; otherwise every rank
// goroutine sweeps its slice and the partials are summed in rank order,
// so repeated evaluations are bit-identical at every rank count.
func (e *Engine) Evaluate(gammas, betas []float64) float64 {
	if len(gammas) != len(betas) {
		panic(fmt.Sprintf("qsim: engine got %d gammas but %d betas", len(gammas), len(betas)))
	}
	if e.world == nil {
		return e.shards[0].evaluate(gammas, betas)
	}
	return e.evaluateRanks(gammas, betas)
}

// evaluate is one slice's full evaluation: the fused layer schedule on
// the local slice, with global-qubit rotations routed through
// barrier-separated slice exchanges when there is more than one rank.
func (d *shard) evaluate(gammas, betas []float64) float64 {
	sh := d.sh
	p := len(gammas)
	if p == 0 {
		// Degenerate ⟨+|D|+⟩: fill the slice and dot it locally.
		amp := complex(1/math.Sqrt(sh.globalLen), 0)
		acc := 0.0
		for i := range d.amps {
			d.amps[i] = amp
			acc += real(amp) * real(amp) * sh.diag[d.base+i]
		}
		if d.rank == 0 {
			sh.localSweeps++
		}
		return acc
	}
	localGroups := 1 + (sh.nLocal-sh.m0+mixerBlockQubits-1)/mixerBlockQubits
	tiles := len(d.amps) >> uint(sh.m0)
	lowTotal, lowLen := tiles, 1<<uint(sh.m0)
	if sh.z2 {
		lowLen *= 2
		if sh.pg == 0 {
			// The single-slice mirror sweep consumes tile PAIRS
			// (t, tiles−1−t) so it can fuse the boundary rotation into
			// the tile butterfly.
			lowTotal = tiles / 2
			if lowTotal == 0 {
				lowTotal = 1
			}
		}
		// Multi-rank: every local tile is one mirror item (its partner
		// tile arrives in the recv buffer), so lowTotal stays == tiles.
	}
	for l := 0; l < p; l++ {
		d.gamma = gammas[l]
		d.c = math.Cos(betas[l]) // RX(2β): θ/2 = β
		d.sn = math.Sin(betas[l])
		d.first = l == 0
		last := l == p-1
		if sh.levels != nil {
			amp := 1.0
			if d.first {
				amp = 1 / math.Sqrt(sh.globalLen)
			}
			for j, v := range sh.levels {
				sin, cos := math.Sincos(-d.gamma * v)
				d.phases[j] = complex(amp*cos, amp*sin)
			}
		}
		if sh.z2 && sh.pg > 0 && !d.first {
			// Mirror exchange for the fused boundary rotation. The first
			// layer synthesizes phase·|+⟩ straight from the tables and
			// reads no amplitudes, so it needs no partner data.
			d.exchange(sh.ranks - 1 - d.rank)
		}
		d.expect = last && localGroups == 1 && sh.pg == 0
		if d.expect {
			d.resetPartials()
		}
		d.dispatch(lowTotal, lowLen, d.lowBody)
		for g0 := sh.m0; g0 < sh.nLocal; g0 += mixerBlockQubits {
			d.g0 = g0
			d.m = sh.nLocal - g0
			if d.m > mixerBlockQubits {
				d.m = mixerBlockQubits
			}
			d.expect = last && sh.pg == 0 && g0+mixerBlockQubits >= sh.nLocal
			if d.expect {
				d.resetPartials()
			}
			batches := len(d.amps) >> uint(d.m) / highBatch
			d.dispatch(batches, 1<<uint(d.m)*highBatch, d.highBody)
		}
		if d.rank == 0 {
			sh.localSweeps += localGroups
		}
		for gq := 0; gq < sh.pg; gq++ {
			d.exchange(d.rank ^ 1<<uint(gq))
			d.bit0 = d.rank&(1<<uint(gq)) == 0
			d.expect = last && gq == sh.pg-1
			if d.expect {
				d.resetPartials()
			}
			d.dispatch(len(d.amps), 1, d.globalBody)
		}
	}
	total := 0.0
	for _, v := range d.partials {
		total += v
	}
	return total
}

func (d *shard) resetPartials() {
	for i := range d.partials {
		d.partials[i] = 0
	}
}

// dispatch runs a prepared pass body over [0, total) chunks through the
// state's kernel pool, inline when the sweep is small or the state is
// serial. Concurrent ranks interleave their chunks on the same workers;
// each rank waits only on its own WaitGroup.
func (d *shard) dispatch(total, itemLen int, body func(w, start, end int)) {
	p := d.sh.state.kernelPool()
	if p == nil || total*itemLen < parallelThreshold {
		body(0, 0, total)
		return
	}
	if p.workers > len(d.partials) {
		// The pool grew after construction (pool override on the state);
		// re-size outside the steady-state path.
		d.partials = make([]float64, p.workers)
		if d.sh.z2 {
			d.mirrors = mirrorScratch(p.workers, d.sh.m0)
		}
	}
	p.run(total, body, &d.wg)
}

// runLowChunk is the fused low sweep: per contiguous tile, apply the
// cost phases (synthesizing the first layer's phase·|+⟩ directly), run
// the low butterfly levels, and — when this is the evaluation's final
// sweep — accumulate the energy while the tile is cache-resident.
func (d *shard) runLowChunk(w, start, end int) {
	sh := d.sh
	amps := d.amps
	tl := 1 << uint(sh.m0)
	c, sn := d.c, d.sn
	acc := 0.0
	for t := start; t < end; t++ {
		lb := t * tl
		gb := d.base + lb
		buf := amps[lb : lb+tl]
		d.phaseTile(buf, gb)
		rxTile(buf, 1, c, sn)
		if d.expect {
			dg := sh.diag[gb : gb+tl]
			for i := range buf {
				a := buf[i]
				re, im := real(a), imag(a)
				acc += (re*re + im*im) * dg[i]
			}
		}
	}
	if d.expect {
		d.partials[w] += acc
	}
}

// phaseTile applies the current layer's cost phases to one
// cache-resident tile — synthesizing phase·|+⟩ in place on the first
// layer — with base the tile's GLOBAL offset into the diagonal tables.
// The first-layer amplitude normalizer is the global vector length (a
// slice is a window, not a smaller state); on a Z2 engine that is the
// half-vector length, which makes the amplitude 1/√(2^(nFull−1)) =
// √2·2^(-nFull/2): the reduction's renormalization falls out
// automatically.
func (d *shard) phaseTile(buf []complex128, base int) {
	sh := d.sh
	if sh.levels != nil {
		idx := sh.idx[base : base+len(buf)]
		ph := d.phases
		if d.first {
			for i := range buf {
				buf[i] = ph[idx[i]]
			}
		} else {
			for i := range buf {
				buf[i] *= ph[idx[i]]
			}
		}
		return
	}
	shf := sh.shift[base : base+len(buf)]
	gamma := d.gamma
	if d.first {
		amp0 := 1 / math.Sqrt(sh.globalLen)
		for i := range buf {
			sin, cos := math.Sincos(-gamma * shf[i])
			buf[i] = complex(amp0*cos, amp0*sin)
		}
	} else {
		for i := range buf {
			sin, cos := math.Sincos(-gamma * shf[i])
			buf[i] *= complex(cos, sin)
		}
	}
}

// phaseTileInto is phaseTile fused with the mirror sweep's scratch
// load: it reads src (one tile of the local slice, or of the partner's
// received copy), applies the layer's phases, and writes the result to
// dst — in index order when reversed is false, back-to-front (dst[i] ←
// src[len−1−i]) when true. base is the tile's GLOBAL offset into the
// diagonal tables; the tables are addressed in SRC order, so the
// reversed copy phases each amplitude with its own diagonal entry. On
// the first layer src is not read at all — the phased |+⟩ synthesis
// writes straight into scratch.
func (d *shard) phaseTileInto(dst, src []complex128, base int, reversed bool) {
	sh := d.sh
	last := len(dst) - 1
	if sh.levels != nil {
		idx := sh.idx[base : base+len(dst)]
		ph := d.phases
		switch {
		case d.first && reversed:
			for i := range dst {
				dst[i] = ph[idx[last-i]]
			}
		case d.first:
			for i := range dst {
				dst[i] = ph[idx[i]]
			}
		case reversed:
			for i := range dst {
				j := last - i
				dst[i] = src[j] * ph[idx[j]]
			}
		default:
			for i := range dst {
				dst[i] = src[i] * ph[idx[i]]
			}
		}
		return
	}
	shf := sh.shift[base : base+len(dst)]
	gamma := d.gamma
	if d.first {
		amp0 := 1 / math.Sqrt(sh.globalLen)
		for i := range dst {
			j := i
			if reversed {
				j = last - i
			}
			sin, cos := math.Sincos(-gamma * shf[j])
			dst[i] = complex(amp0*cos, amp0*sin)
		}
		return
	}
	for i := range dst {
		j := i
		if reversed {
			j = last - i
		}
		sin, cos := math.Sincos(-gamma * shf[j])
		dst[i] = src[j] * complex(cos, sin)
	}
}

// runMirrorChunk is the Z2 engine's fused low sweep. The boundary
// rotation — RX on full qubit nFull−1, which pairs reduced index i with
// its complement maskLow^i — is an index REVERSAL, not a strided
// butterfly, so it cannot ride the blocked kernels directly. Instead
// the sweep processes mirror tile pairs: global tile t is copied
// forward and global tile T−1−t REVERSED into one 2·tileLen scratch
// buffer, where
//
//   - butterfly levels h ≤ tileLen/2 act inside each half, applying the
//     low-qubit rotations to both tiles (the reversed copy swaps each
//     pair's 0/1 roles, which the symmetric RX matrix can't tell), and
//   - level h = tileLen pairs forward[b] with reversed[tileLen−1−b] —
//     exactly the boundary pairing i ↔ maskLow^i.
//
// One rxTile call on the scratch therefore applies ALL low levels plus
// the boundary to both tiles, inheriting the vector kernels and their
// portable fallback, and the phase/energy folds run on the same
// cache-resident data. On a single rank both tiles are local and chunk
// items are tile pairs, [0, tiles/2). On multi-rank layouts tile T−1−t
// lives on mirror rank ranks−1−r and arrived through this layer's
// mirror exchange; both sides of a pair assemble the identical scratch
// and keep only their own half — the low butterfly work is done twice
// across the pair, which is cheaper than a second exchange to return
// the partner half.
func (d *shard) runMirrorChunk(w, start, end int) {
	sh := d.sh
	amps := d.amps
	tl := 1 << uint(sh.m0)
	c, sn := d.c, d.sn
	acc := 0.0
	localTiles := len(amps) >> uint(sh.m0)
	if sh.pg == 0 {
		if localTiles == 1 {
			// Single-tile half-vector (nFull ≤ lowBlockQubits+1): all low
			// levels in place, then the boundary reversal as a scalar pass.
			d.phaseTile(amps, 0)
			rxTile(amps, 1, c, sn)
			z2Boundary(amps, c, sn)
			if d.expect {
				for i := range amps {
					a := amps[i]
					re, im := real(a), imag(a)
					acc += (re*re + im*im) * sh.diag[i]
				}
				d.partials[w] += acc
			}
			return
		}
		sc := d.mirrors[w][:2*tl]
		for t := start; t < end; t++ {
			fb := t * tl
			rb := (localTiles - 1 - t) * tl
			fwd := amps[fb : fb+tl]
			rev := amps[rb : rb+tl]
			d.phaseTileInto(sc[:tl], fwd, fb, false)
			d.phaseTileInto(sc[tl:2*tl], rev, rb, true)
			rxTile(sc, 1, c, sn)
			copy(fwd, sc[:tl])
			for i := 0; i < tl; i++ {
				rev[tl-1-i] = sc[tl+i]
			}
			if d.expect {
				df := sh.diag[fb : fb+tl]
				dr := sh.diag[rb : rb+tl]
				for i := range fwd {
					a := fwd[i]
					re, im := real(a), imag(a)
					acc += (re*re + im*im) * df[i]
				}
				for i := range rev {
					a := rev[i]
					re, im := real(a), imag(a)
					acc += (re*re + im*im) * dr[i]
				}
			}
		}
		if d.expect {
			d.partials[w] += acc
		}
		return
	}

	// Multi-rank: chunk items are LOCAL tiles. Ranks below ranks/2 hold
	// the forward member of every mirror pair, upper ranks the reversed
	// member; the partner tile is recv[localTiles−1−j] either way.
	globalTiles := localTiles * sh.ranks
	fwdSide := d.rank < sh.ranks/2
	sc := d.mirrors[w][:2*tl]
	for j := start; j < end; j++ {
		gt := d.rank*localTiles + j
		mirror := (localTiles - 1 - j) * tl
		if fwdSide {
			fb := gt * tl
			rb := (globalTiles - 1 - gt) * tl
			fwd := amps[j*tl : j*tl+tl]
			rev := d.recv[mirror : mirror+tl]
			d.phaseTileInto(sc[:tl], fwd, fb, false)
			d.phaseTileInto(sc[tl:2*tl], rev, rb, true)
			rxTile(sc, 1, c, sn)
			copy(fwd, sc[:tl])
			if d.expect {
				df := sh.diag[fb : fb+tl]
				for i := 0; i < tl; i++ {
					a := fwd[i]
					re, im := real(a), imag(a)
					acc += (re*re + im*im) * df[i]
				}
			}
		} else {
			rb := gt * tl
			fb := (globalTiles - 1 - gt) * tl
			fwd := d.recv[mirror : mirror+tl]
			rev := amps[j*tl : j*tl+tl]
			d.phaseTileInto(sc[:tl], fwd, fb, false)
			d.phaseTileInto(sc[tl:2*tl], rev, rb, true)
			rxTile(sc, 1, c, sn)
			for i := 0; i < tl; i++ {
				rev[tl-1-i] = sc[tl+i]
			}
			if d.expect {
				dr := sh.diag[rb : rb+tl]
				for i := 0; i < tl; i++ {
					a := rev[i]
					re, im := real(a), imag(a)
					acc += (re*re + im*im) * dr[i]
				}
			}
		}
	}
	if d.expect {
		d.partials[w] += acc
	}
}

// z2Boundary applies the boundary rotation to a single-tile reduced
// vector: the pairing i ↔ maskLow^i is the index reversal i ↔ len−1−i,
// rotated with the exact arithmetic of the ApplyRX kernel (the RX
// matrix is symmetric, so either pair member may take the 0-side row).
func z2Boundary(buf []complex128, c, sn float64) {
	for i, j := 0, len(buf)-1; i < j; i, j = i+1, j-1 {
		a0, a1 := buf[i], buf[j]
		re0, im0 := real(a0), imag(a0)
		re1, im1 := real(a1), imag(a1)
		buf[i] = complex(c*re0+sn*im1, c*im0-sn*re1)
		buf[j] = complex(sn*im0+c*re1, c*im1-sn*re0)
	}
}

// runHighChunk is the gathered local high sweep of mixer.go's
// rxHighPass, plus the optional cache-resident energy fold on the final
// sweep (globally offset diagonal indexing).
func (d *shard) runHighChunk(w, start, end int) {
	sh := d.sh
	amps := d.amps
	tl := 1 << uint(d.m)
	stride := 1 << uint(d.g0)
	mask := stride - 1
	c, sn := d.c, d.sn
	acc := 0.0
	var buf [highBufLen]complex128
	bb := buf[:tl*highBatch]
	for u := start; u < end; u++ {
		t := u * highBatch
		base := (t&^mask)<<uint(d.m) | t&mask
		p := base
		for v := 0; v < tl; v++ {
			copy(bb[v*highBatch:(v+1)*highBatch], amps[p:p+highBatch])
			p += stride
		}
		rxTile(bb, highBatch, c, sn)
		if d.expect {
			p = base
			for v := 0; v < tl; v++ {
				dg := sh.diag[d.base+p : d.base+p+highBatch]
				row := bb[v*highBatch : (v+1)*highBatch]
				for j := range row {
					a := row[j]
					re, im := real(a), imag(a)
					acc += (re*re + im*im) * dg[j]
				}
				p += stride
			}
		}
		p = base
		for v := 0; v < tl; v++ {
			copy(amps[p:p+highBatch], bb[v*highBatch:(v+1)*highBatch])
			p += stride
		}
	}
	if d.expect {
		d.partials[w] += acc
	}
}
