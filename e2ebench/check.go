package main

import (
	"fmt"
	"math"

	"qaoa2/internal/graph"
)

// cutClaim is what a solve reports about its cut.
type cutClaim struct {
	spins        []int8
	value        float64
	intra, cross float64
	// leafValues are the first-level sub-graph cut values the solve
	// reports. Flipping a whole sub-graph during the merge keeps its
	// internal cut, so they must sum to intra.
	leafValues []float64
}

// checkCut is the benchmark's correctness gate for one returned cut. It
// re-scores the spins on the instance itself rather than trusting the
// solver's numbers.
func checkCut(g *graph.Graph, c cutClaim) error {
	if len(c.spins) != g.N() {
		return fmt.Errorf("%d spins for %d nodes", len(c.spins), g.N())
	}
	for v, s := range c.spins {
		if s != 1 && s != -1 {
			return fmt.Errorf("spin %d of node %d is not ±1", s, v)
		}
	}
	eps := 1e-9 * math.Max(1, g.TotalWeight())
	if got := g.CutValue(c.spins); math.Abs(got-c.value) > eps {
		return fmt.Errorf("reported cut %v but the spins cut %v", c.value, got)
	}
	if math.Abs(c.intra+c.cross-c.value) > eps {
		return fmt.Errorf("intra %v + cross %v != cut %v", c.intra, c.cross, c.value)
	}
	sum := 0.0
	for _, v := range c.leafValues {
		sum += v
	}
	if math.Abs(sum-c.intra) > eps {
		return fmt.Errorf("sub-graph cuts sum to %v but the intra cut is %v", sum, c.intra)
	}
	return nil
}
