package swapins

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/circuit"
	"repro/internal/decompose"
	"repro/internal/device"
	"repro/internal/mapping"
	"repro/internal/workloads"
)

// refPickBest is the Eq. 1 scorer with α^Δdepth evaluated by math.Pow
// inside the candidate × lookahead loop: the differential oracle for
// pickBest. Keep it unoptimised.
func refPickBest(c *circuit.Circuit, m *mapping.Mapping, depths []int, remaining []int, current int, cand []swapOp, opt Options) swapOp {
	look := remaining
	if len(look) > opt.Lookahead {
		look = look[:opt.Lookahead]
	}
	curDepth := depths[current]

	best := cand[0]
	bestScore := math.Inf(1)
	bestCur := math.MaxInt32
	for _, sw := range cand {
		la := m.Logical(sw.a)
		lb := m.Logical(sw.b)
		score := 0.0
		curAfter := 0
		for _, gi := range look {
			g := c.Gate(gi)
			d := distAfterSwap(m, g, la, lb, sw)
			delta := depths[gi] - curDepth
			if delta < 0 {
				delta = 0
			}
			w := math.Pow(opt.Alpha, float64(delta))
			if w < 1e-9 {
				continue
			}
			score += float64(d) * w
			if gi == current {
				curAfter = d
			}
		}
		if score < bestScore-1e-12 ||
			(math.Abs(score-bestScore) <= 1e-12 && betterTie(sw, curAfter, best, bestCur)) {
			best = sw
			bestScore = score
			bestCur = curAfter
		}
	}
	return best
}

// refLinQInsert is Algorithm 1 driven by refPickBest, emitting every gate
// through MustAdd with a freshly allocated qubit slice. Inputs are assumed
// valid (the differential test runs LinQ.Insert first, which checks them).
func refLinQInsert(c *circuit.Circuit, m0 *mapping.Mapping, dev device.TILT, opt Options) *Result {
	opt = opt.withDefaults(dev)
	m := m0.Clone()
	out := circuit.New(dev.NumIons)
	emit := func(g circuit.Gate) {
		qs := make([]int, len(g.Qubits))
		for i, q := range g.Qubits {
			qs[i] = m.Phys(q)
		}
		out.MustAdd(g.Kind, g.Theta, qs...)
	}
	depths := c.GateDepths()
	var twoQ []int
	for i, g := range c.Gates() {
		if g.IsTwoQubit() {
			twoQ = append(twoQ, i)
		}
	}
	res := &Result{InitialMapping: m0.Clone()}
	next := 0
	for gi, g := range c.Gates() {
		if !g.IsTwoQubit() {
			emit(g)
			continue
		}
		for m.GateDistance(g.Qubits[0], g.Qubits[1]) > dev.MaxGateDistance() {
			cand := appendCandidates(nil, m, g, opt.MaxSwapLen)
			best := refPickBest(c, m, depths, twoQ[next:], gi, cand, opt)
			if refIsOpposing(c, m, twoQ[next:], best, opt.Lookahead) {
				res.OpposingSwaps++
			}
			out.MustAdd(circuit.SWAP, 0, best.a, best.b)
			m.SwapPhysical(best.a, best.b)
			res.SwapCount++
		}
		emit(g)
		next++
	}
	res.Physical = out
	res.FinalMapping = m
	return res
}

// TestLinQMatchesReference pins LinQ.Insert to the reference inserter on
// the workloads corpus and seeded random circuits, at head sizes 4, 8 and
// 16 and several MaxSwapLen and Alpha values: identical physical circuits
// (by fingerprint), swap counts, opposing-swap counts and final mappings.
func TestLinQMatchesReference(t *testing.T) {
	corpus := append(workloads.All(), workloads.ShortDistanceSuite()...)
	corpus = append(corpus, workloads.QFTN(20))
	for seed := int64(1); seed <= 6; seed++ {
		corpus = append(corpus, workloads.Random(16+int(seed)*4, 40, seed))
	}
	for _, bm := range corpus {
		nat := decompose.ToNative(bm.Circuit)
		n := nat.NumQubits()
		for _, head := range []int{4, 8, 16} {
			dev := device.TILT{NumIons: n, HeadSize: head}
			m0, err := mapping.Initial(nat, n, mapping.ProgramOrderPlacement)
			if err != nil {
				t.Fatal(err)
			}
			for _, opt := range []Options{{}, {MaxSwapLen: 1}, {MaxSwapLen: head / 2, Alpha: 0.5, Lookahead: 40}} {
				label := fmt.Sprintf("%s head=%d %+v", bm.Name, head, opt)
				got, err := (LinQ{}).Insert(context.Background(), nat, m0, dev, opt)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				want := refLinQInsert(nat, m0, dev, opt)
				if got.Physical.Fingerprint() != want.Physical.Fingerprint() {
					t.Fatalf("%s: physical circuit differs from the reference", label)
				}
				if got.SwapCount != want.SwapCount || got.OpposingSwaps != want.OpposingSwaps {
					t.Fatalf("%s: swaps %d (opposing %d), reference %d (opposing %d)",
						label, got.SwapCount, got.OpposingSwaps, want.SwapCount, want.OpposingSwaps)
				}
				if !reflect.DeepEqual(got.FinalMapping.LogicalToPhysical(), want.FinalMapping.LogicalToPhysical()) {
					t.Fatalf("%s: final mapping differs from the reference", label)
				}
			}
		}
	}
}

// distAfterSwap returns D(g, M_{qi,qj}): gate g's physical distance after
// hypothetically swapping logical qubits la (at sw.a) and lb (at sw.b).
func distAfterSwap(m *mapping.Mapping, g circuit.Gate, la, lb int, sw swapOp) int {
	d := physAfterSwap(m, g.Qubits[0], la, lb, sw) - physAfterSwap(m, g.Qubits[1], la, lb, sw)
	if d < 0 {
		d = -d
	}
	return d
}

// physAfterSwap returns logical qubit q's slot after hypothetically
// swapping la (at sw.a) with lb (at sw.b).
func physAfterSwap(m *mapping.Mapping, q, la, lb int, sw swapOp) int {
	switch q {
	case la:
		return sw.b
	case lb:
		return sw.a
	default:
		return m.Phys(q)
	}
}

// refIsOpposing is the opposing-swap classifier (Fig. 2c) computing the
// post-swap distance through the logical qubits: the oracle for
// isOpposing.
func refIsOpposing(c *circuit.Circuit, m *mapping.Mapping, remaining []int, sw swapOp, lookahead int) bool {
	a, b := sw.a, sw.b
	if a > b {
		a, b = b, a
	}
	rightMover := m.Logical(a) // moves a -> b (rightward)
	leftMover := m.Logical(b)  // moves b -> a (leftward)
	look := remaining
	if len(look) > lookahead {
		look = look[:lookahead]
	}
	rightHelps, leftHelps := -1, -1
	for _, gi := range look {
		g := c.Gate(gi)
		before := m.GateDistance(g.Qubits[0], g.Qubits[1])
		after := distAfterSwap(m, g, m.Logical(sw.a), m.Logical(sw.b), sw)
		if after >= before {
			continue
		}
		involvesRight := g.Qubits[0] == rightMover || g.Qubits[1] == rightMover
		involvesLeft := g.Qubits[0] == leftMover || g.Qubits[1] == leftMover
		if involvesRight && !involvesLeft && rightHelps == -1 {
			rightHelps = gi
		}
		if involvesLeft && !involvesRight && leftHelps == -1 {
			leftHelps = gi
		}
		if rightHelps != -1 && leftHelps != -1 {
			return true
		}
	}
	return false
}
