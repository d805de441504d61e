package main

import (
	"sort"

	"qaoa2/internal/solver"
)

// solveInfo is what the layer breakdown needs from one traced solve's
// result, beside its spans.
type solveInfo struct {
	solve       int // tracer solve id
	maxQubits   int
	parallelism int
	levels      int
	// qaoaWins counts first-level sub-graphs whose kept cut came from
	// QAOA; qaoaTries counts the QAOA attempts made on them.
	qaoaWins, qaoaTries int
	// end, when set, closes the solve span (a served job's run ends
	// when the server settles it, outside any wrapped call).
	end int64
}

// countQAOA adds one first-level sub-graph's report: whether QAOA's cut
// was kept, and how many QAOA attempts were made on it.
func (info *solveInfo) countQAOA(winner string, attempts []solver.Attempt) {
	if winner == "qaoa" {
		info.qaoaWins++
	}
	if len(attempts) == 0 && winner == "qaoa" {
		info.qaoaTries++
	}
	for _, a := range attempts {
		if a.Solver == "qaoa" {
			info.qaoaTries++
		}
	}
}

// layerBreakdown derives the per-layer metrics, as means per solve,
// and the first-level leaf-size histogram (leaf nodes → leaves, summed
// over the solves) from the traced spans.
func layerBreakdown(spans []span, solves []solveInfo) (map[string]float64, map[int]int) {
	bySolve := make(map[int][]span)
	for _, s := range spans {
		bySolve[s.Solve] = append(bySolve[s.Solve], s)
	}
	hist := make(map[int]int)
	var (
		partBusy, crossFrac                       float64
		leafNodes, leafCapacity                   float64
		prepCalls, prepBusy                       float64
		evalCalls, evalBusy, ampBytes             float64
		qaoaSelf, qaoaExecs, qaoaEvals            float64
		gwCalls, gwBusy                           float64
		leafCalls, leafBusy, leafWait, slotUtil   float64
		mergeCalls, mergeBusy, levels, solverSelf float64
		wins, tries                               int
	)
	for _, info := range solves {
		ss := bySolve[info.solve]
		var root span
		children := make(map[int][]span)
		for _, s := range ss {
			if s.Kind == kindSolve {
				root = s
			}
			children[s.Parent] = append(children[s.Parent], s)
		}
		if info.end != 0 {
			root.End = info.end
		}
		var leaves, covered []span
		for _, s := range ss {
			switch s.Kind {
			case kindLeaf:
				leaves = append(leaves, s)
				covered = append(covered, s)
			case kindMerge:
				mergeCalls++
				mergeBusy += float64(s.dur())
				covered = append(covered, s)
			case kindPartition:
				partBusy += float64(s.dur())
				covered = append(covered, s)
			case kindPrepare:
				prepCalls++
				prepBusy += float64(s.dur())
			case kindEvaluate:
				evalCalls += float64(s.Calls)
				evalBusy += float64(s.Busy)
				ampBytes += s.AmpBytes
			}
			// qaoa.* describe the QAOA leaf solves: first-level leaves
			// and best-of members, not QAOA merges.
			if s.Solver == "qaoa" && (s.Kind == kindLeaf || s.Kind == kindMember) {
				qaoaExecs++
				self := s.dur()
				for _, c := range children[s.ID] {
					switch c.Kind {
					case kindPrepare:
						self -= c.dur()
					case kindEvaluate:
						self -= c.Busy
						qaoaEvals += float64(c.Calls)
					}
				}
				qaoaSelf += float64(self)
			}
			if s.Solver == "gw" && (s.Kind == kindMember || s.Kind == kindLeaf) {
				gwCalls++
				gwBusy += float64(s.dur())
			}
		}
		if len(leaves) > 0 && !hasKind(ss, kindPartition) {
			// A served job's partition runs inside the runtime, out of
			// reach of a wrapper: its pre-leaf phase stands in for it.
			pre := span{Kind: kindPartition, Start: root.Start, End: leaves[0].Start}
			for _, l := range leaves {
				pre.End = min(pre.End, l.Start)
			}
			partBusy += float64(pre.dur())
			covered = append(covered, pre)
		}
		leafCalls += float64(len(leaves))
		leafCapacity += float64(len(leaves) * info.maxQubits)
		var weight, busy float64
		var first, last int64
		for i, l := range leaves {
			hist[l.Nodes]++
			leafNodes += float64(l.Nodes)
			weight += l.Weight
			busy += float64(l.dur())
			leafWait += float64(l.Start - root.Start)
			if i == 0 {
				first, last = l.Start, l.End
			}
			first, last = min(first, l.Start), max(last, l.End)
		}
		leafBusy += busy
		if root.Weight > 0 {
			crossFrac += 1 - weight/root.Weight
		}
		if phase := last - first; phase > 0 && info.parallelism > 0 {
			slotUtil += busy / (float64(phase) * float64(info.parallelism))
		}
		levels += float64(info.levels)
		solverSelf += float64(root.dur() - unionLen(covered))
		wins += info.qaoaWins
		tries += info.qaoaTries
	}
	n := float64(len(solves))
	const sec = 1e9
	m := map[string]float64{
		"partition.busy_s":            partBusy / n / sec,
		"partition.parts":             leafCalls / n,
		"partition.leaf_fill":         ratio(leafNodes, leafCapacity),
		"partition.cross_weight_frac": crossFrac / n,
		"backend.prepare_calls":       prepCalls / n,
		"backend.prepare_busy_s":      prepBusy / n / sec,
		"backend.evaluate_calls":      evalCalls / n,
		"backend.evaluate_busy_s":     evalBusy / n / sec,
		"backend.amp_bytes":           ampBytes / n,
		"qaoa.self_s":                 qaoaSelf / n / sec,
		"qaoa.evals_per_leaf":         ratio(qaoaEvals, qaoaExecs),
		"gw.calls":                    gwCalls / n,
		"gw.busy_s":                   gwBusy / n / sec,
		"solver.qaoa_win_frac":        ratio(float64(wins), float64(tries)),
		"solver.leaf_calls":           leafCalls / n,
		"solver.leaf_busy_s":          leafBusy / n / sec,
		"solver.leaf_wait_s":          ratio(leafWait, leafCalls) / sec,
		"solver.slot_util":            slotUtil / n,
		"merge.calls":                 mergeCalls / n,
		"merge.busy_s":                mergeBusy / n / sec,
		"merge.levels":                levels / n,
		"qaoa2.self_s":                solverSelf / n / sec,
	}
	return m, hist
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func hasKind(ss []span, kind string) bool {
	for _, s := range ss {
		if s.Kind == kind {
			return true
		}
	}
	return false
}

// unionLen is the length of the union of the spans' intervals.
func unionLen(ss []span) int64 {
	iv := append([]span(nil), ss...)
	sort.Slice(iv, func(i, j int) bool { return iv[i].Start < iv[j].Start })
	var total, curStart, curEnd int64
	open := false
	for _, s := range iv {
		if open && s.Start <= curEnd {
			curEnd = max(curEnd, s.End)
			continue
		}
		if open {
			total += curEnd - curStart
		}
		curStart, curEnd, open = s.Start, s.End, true
	}
	if open {
		total += curEnd - curStart
	}
	return total
}
