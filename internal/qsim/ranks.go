package qsim

import (
	"runtime"

	"qaoa2/internal/hpc/comm"
)

// Multi-rank execution of the Engine (ranks > 1). Ranks are persistent
// goroutines created at construction, each owning a comm.Comm handle
// on an hpc comm world, its shard of the one contiguous state array and
// per-rank pool scratch. An Evaluate signals every rank, the ranks run
// the layer schedule with barrier-separated slice exchanges, and each
// returns its slice's energy partial over a plain channel (deliberately
// NOT over the comm world, so the comm ledger contains exactly the
// slice exchanges). Because the slices alias one backing array, the
// final-state "gather" is free; a real multi-process deployment would
// replace Comm.ExchangeSlices with wire transfers and gather
// explicitly. The only per-evaluation allocations are the comm layer's
// payload boxing. Call Stop (or let the finalizer run) to terminate the
// rank goroutines.

// DistStats records the communication behaviour of a sharded
// evaluation; the scaling experiment (paper §4: "33 qubits ... on 512
// compute nodes", "almost ideal scaling") reads these counters.
type DistStats struct {
	LocalGates   int    // fused sweeps run without communication
	CommGates    int    // sweeps that required a rank exchange
	MessagesSent int    // point-to-point messages (one per rank per exchange)
	BytesSent    uint64 // payload volume of those messages
}

// evalReq carries one evaluation's parameters to a rank goroutine.
type evalReq struct {
	gammas, betas []float64
}

// rankResult is one rank's energy contribution.
type rankResult struct {
	rank   int
	energy float64
}

// tagDistExchange tags the engine's slice exchanges on the comm world.
// Rounds are barrier-separated (Comm.ExchangeSlices), so one tag
// suffices.
const tagDistExchange = 7

// startRanks creates the comm world and one goroutine per shard.
func (e *Engine) startRanks() error {
	sh := e.sh
	world, err := comm.NewWorld(sh.ranks)
	if err != nil {
		return err
	}
	e.world = world
	e.start = make([]chan evalReq, sh.ranks)
	e.results = make(chan rankResult, sh.ranks)
	e.partials = make([]float64, sh.ranks)
	for r, d := range e.shards {
		if d.comm, err = world.Rank(r); err != nil {
			return err
		}
	}
	for r, d := range e.shards {
		d.recv = make([]complex128, sh.sliceLen)
		d.globalBody = d.runGlobalChunk
		e.start[r] = make(chan evalReq, 1)
		go runRank(d, e.start[r], e.results)
	}
	runtime.SetFinalizer(e, (*Engine).Stop)
	return nil
}

// runRank is a rank goroutine's loop: one evaluation per request,
// until the start channel closes (Stop).
func runRank(d *shard, start <-chan evalReq, results chan<- rankResult) {
	for req := range start {
		results <- rankResult{rank: d.rank, energy: d.evaluate(req.gammas, req.betas)}
	}
}

// Stop terminates the rank goroutines of a multi-rank engine (a no-op
// at ranks == 1). Safe to call more than once; a multi-rank engine is
// unusable afterwards. Abandoned engines are stopped by a finalizer,
// but deterministic teardown (tests, bounded fleets) should call Stop
// explicitly.
func (e *Engine) Stop() {
	e.stopOnce.Do(func() {
		for _, ch := range e.start {
			close(ch)
		}
	})
}

// evaluateRanks fans one evaluation out to the rank goroutines and sums
// their partials in rank order, metering the comm world's traffic.
func (e *Engine) evaluateRanks(gammas, betas []float64) float64 {
	before := e.world.Stats()
	for _, ch := range e.start {
		ch <- evalReq{gammas: gammas, betas: betas}
	}
	for range e.start {
		res := <-e.results
		e.partials[res.rank] = res.energy
	}
	total := 0.0
	for _, v := range e.partials {
		total += v
	}
	after := e.world.Stats()
	e.traffic.MessagesSent += int(after.Messages - before.Messages)
	e.traffic.BytesSent += uint64(after.Bytes - before.Bytes)
	return total
}

// Stats returns the cumulative communication ledger: LocalGates and
// CommGates count fused SWEEPS (one blocked sweep ≈ one fused gate
// layer, not one per-qubit gate), MessagesSent/BytesSent are measured
// from the comm world's traffic counters across Evaluate calls (zero
// at ranks == 1).
func (e *Engine) Stats() DistStats {
	st := e.traffic
	st.LocalGates = e.sh.localSweeps
	st.CommGates = e.sh.commSweeps
	return st
}

// CommBytesExpected is the closed-form exchange volume of ONE Evaluate
// at depth layers on this engine's configuration: per layer each of the
// pg global qubits moves every slice once (ranks messages of
// sliceLen·16 bytes), and the Z2 variant adds one mirror exchange per
// layer after the first. Zero at ranks == 1. The rank tests gate the
// measured BytesSent against this exactly.
func (e *Engine) CommBytesExpected(layers int) uint64 {
	sh := e.sh
	if sh.pg == 0 || layers == 0 {
		return 0
	}
	rounds := uint64(layers) * uint64(sh.pg)
	if sh.z2 {
		rounds += uint64(layers - 1)
	}
	return rounds * uint64(sh.ranks) * uint64(sh.sliceLen) * 16
}

// CommBytesExpected is the closed-form exchange volume of the fused
// distributed schedule WITHOUT the Z2 reduction: layers · log2(ranks)
// exchange rounds, each moving every rank's full slice of 2^(n−log2
// ranks) amplitudes at 16 bytes each. Zero at ranks == 1 (everything is
// local). The method hangs off DistStats so tests can gate a measured
// ledger against theory next to the counters themselves; the Z2-reduced
// engine's schedule differs (mirror exchanges, halved slices) — use
// Engine.CommBytesExpected for an engine's own configuration.
func (DistStats) CommBytesExpected(n, ranks, layers int) uint64 {
	pg := 0
	for 1<<uint(pg) < ranks {
		pg++
	}
	if ranks < 1 || 1<<uint(pg) != ranks || pg == 0 {
		return 0
	}
	return uint64(layers) * uint64(pg) * uint64(ranks) * (uint64(16) << uint(n-pg))
}

// exchange swaps this rank's slice with partner's into recv (one
// barrier-separated round) and books the comm sweep.
func (d *shard) exchange(partner int) {
	d.comm.ExchangeSlices(partner, tagDistExchange, d.amps, d.recv)
	if d.rank == 0 {
		d.sh.commSweeps++
	}
}

// runGlobalChunk is the element-wise butterfly of one global qubit's RX
// after the slice exchange: this rank holds one side of every pair, the
// partner's amplitudes sit in recv. Arithmetic matches State.ApplyRX
// exactly (4 real multiplies per amplitude).
func (d *shard) runGlobalChunk(w, start, end int) {
	c, sn := d.c, d.sn
	mine := d.amps
	theirs := d.recv
	if !d.expect {
		if d.bit0 {
			for i := start; i < end; i++ {
				a0, a1 := mine[i], theirs[i]
				mine[i] = complex(c*real(a0)+sn*imag(a1), c*imag(a0)-sn*real(a1))
			}
		} else {
			for i := start; i < end; i++ {
				a0, a1 := theirs[i], mine[i]
				mine[i] = complex(sn*imag(a0)+c*real(a1), c*imag(a1)-sn*real(a0))
			}
		}
		return
	}
	diag := d.sh.diag[d.base : d.base+len(mine)]
	acc := 0.0
	if d.bit0 {
		for i := start; i < end; i++ {
			a0, a1 := mine[i], theirs[i]
			v := complex(c*real(a0)+sn*imag(a1), c*imag(a0)-sn*real(a1))
			mine[i] = v
			re, im := real(v), imag(v)
			acc += (re*re + im*im) * diag[i]
		}
	} else {
		for i := start; i < end; i++ {
			a0, a1 := theirs[i], mine[i]
			v := complex(sn*imag(a0)+c*real(a1), c*imag(a1)-sn*real(a0))
			mine[i] = v
			re, im := real(v), imag(v)
			acc += (re*re + im*im) * diag[i]
		}
	}
	d.partials[w] += acc
}
