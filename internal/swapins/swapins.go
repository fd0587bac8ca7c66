// Package swapins resolves unexecutable two-qubit gates on a TILT device by
// inserting SWAP gates (paper §IV-C).
//
// Two inserters are provided:
//
//   - LinQ: the paper's Algorithm 1 — for every unexecutable gate it
//     enumerates candidate swaps between an endpoint and an intermediate
//     qubit within MaxSwapLen, scores each candidate with the lookahead
//     cost of Eq. 1, Score(M) = Σ_g D(g, M)·α^Δ(g), and applies the
//     cheapest. The lookahead naturally pairs data moving in opposite
//     directions into opposing swaps.
//
//   - Stochastic: the baseline of §VI-A modeled on Qiskit StochasticSwap —
//     randomized trials that greedily move one endpoint toward the other
//     with swap lengths up to the full head width and no lookahead.
//
// Both consume a circuit whose two-qubit gates are at most ternary-free
// (arity ≤ 2; run internal/decompose first) and produce a physical circuit
// whose gate qubits are tape slots and whose SWAP gates all satisfy the
// device constraint.
package swapins

//lint:deterministic-package

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/mapping"
)

// cancelCheckEvery is how many units of work (gates emitted or swaps
// inserted) an inserter processes between context checks. Small enough that
// a cancelled batch job stops mid-pass promptly, large enough that the check
// never shows up in profiles.
const cancelCheckEvery = 64

// canceller amortizes ctx.Err() checks over inner-loop iterations.
type canceller struct {
	ctx context.Context
	n   int
}

// check returns the context's error every cancelCheckEvery calls.
func (cc *canceller) check() error {
	cc.n++
	if cc.n%cancelCheckEvery != 0 {
		return nil
	}
	return cc.ctx.Err()
}

// Options configures an insertion pass.
type Options struct {
	// MaxSwapLen caps the span of inserted SWAPs. Zero means HeadSize−1
	// (the loosest feasible value). The paper shows restricting it below
	// HeadSize−1 trades a few extra swaps for tape-scheduler freedom
	// (Fig. 7).
	MaxSwapLen int
	// Alpha is the Eq. 1 lookahead discount, 0 < α < 1. Zero means the
	// default 0.7.
	Alpha float64
	// Lookahead caps how many remaining two-qubit gates the Eq. 1 score
	// examines. Zero means the default 150. Larger values trade compile
	// time for swap quality.
	Lookahead int
}

func (o Options) withDefaults(dev device.TILT) Options {
	if o.MaxSwapLen == 0 {
		o.MaxSwapLen = dev.MaxGateDistance()
	}
	if o.Alpha == 0 {
		o.Alpha = 0.7
	}
	if o.Lookahead == 0 {
		o.Lookahead = 150
	}
	return o
}

func (o Options) validate(dev device.TILT) error {
	if err := dev.Validate(); err != nil {
		return err
	}
	if o.MaxSwapLen < 1 || o.MaxSwapLen > dev.MaxGateDistance() {
		return fmt.Errorf("swapins: MaxSwapLen %d outside [1,%d]",
			o.MaxSwapLen, dev.MaxGateDistance())
	}
	if !(o.Alpha > 0 && o.Alpha < 1) { // also rejects NaN
		return fmt.Errorf("swapins: Alpha %g outside (0,1)", o.Alpha)
	}
	if o.Lookahead < 1 {
		return fmt.Errorf("swapins: Lookahead %d < 1", o.Lookahead)
	}
	return nil
}

// Result is the outcome of an insertion pass.
type Result struct {
	// Physical is the circuit over tape slots: the input gates relocated
	// through the evolving mapping, with SWAP gates inserted. Every
	// two-qubit gate (including SWAPs) spans at most HeadSize−1 slots.
	Physical *circuit.Circuit
	// SwapCount is the number of inserted SWAP gates.
	SwapCount int
	// OpposingSwaps counts inserted SWAPs classified as opposing: the swap
	// strictly shortens at least one pending gate through its right-moving
	// qubit and at least one other pending gate through its left-moving
	// qubit (paper Fig. 2c).
	OpposingSwaps int
	// InitialMapping and FinalMapping are the logical→physical assignments
	// before and after the pass.
	InitialMapping *mapping.Mapping
	FinalMapping   *mapping.Mapping
}

// OpposingRatio returns OpposingSwaps/SwapCount, or 0 with no swaps.
func (r *Result) OpposingRatio() float64 {
	if r.SwapCount == 0 {
		return 0
	}
	return float64(r.OpposingSwaps) / float64(r.SwapCount)
}

// Inserter resolves unexecutable gates for a TILT device.
type Inserter interface {
	// Name identifies the strategy in reports.
	Name() string
	// Insert rewrites c (logical qubits) into a physical circuit using m0
	// as the initial placement. m0 is not mutated. Cancellation of ctx is
	// observed inside the insertion loop (every few dozen gates/swaps), so
	// a cancelled batch job stops mid-pass.
	Insert(ctx context.Context, c *circuit.Circuit, m0 *mapping.Mapping, dev device.TILT, opt Options) (*Result, error)
}

// LinQ is the paper's Algorithm 1 heuristic inserter.
type LinQ struct{}

// Name implements Inserter.
func (LinQ) Name() string { return "linq" }

// Insert implements Inserter.
func (LinQ) Insert(ctx context.Context, c *circuit.Circuit, m0 *mapping.Mapping, dev device.TILT, opt Options) (*Result, error) {
	opt = opt.withDefaults(dev)
	if err := opt.validate(dev); err != nil {
		return nil, err
	}
	if err := checkInput(c, m0, dev); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cc := canceller{ctx: ctx}

	m := m0.Clone()
	out := circuit.New(dev.NumIons)
	out.Grow(c.Len())
	depths := c.GateDepths()
	// Remaining two-qubit gate indices, consumed front to back.
	var twoQ []int
	for i, g := range c.Gates() {
		if g.IsTwoQubit() {
			twoQ = append(twoQ, i)
		}
	}
	res := &Result{InitialMapping: m0.Clone()}
	nextTwoQ := 0
	// Reused across resolutions; nothing retains them.
	var candBuf []swapOp
	var terms []lookTerm
	sc := newScorer(dev.NumIons, min(opt.Lookahead, len(twoQ)))

	for gi, g := range c.Gates() {
		if err := cc.check(); err != nil {
			return nil, err
		}
		if !g.IsTwoQubit() {
			emitMapped(out, g, m)
			continue
		}
		if m.GateDistance(g.Qubits[0], g.Qubits[1]) > dev.MaxGateDistance() {
			terms = appendTerms(terms[:0], c, depths, twoQ[nextTwoQ:], gi, opt)
		}
		// Resolve until executable (Algorithm 1 main loop). Every
		// candidate strictly shortens the current gate, so this
		// terminates.
		for m.GateDistance(g.Qubits[0], g.Qubits[1]) > dev.MaxGateDistance() {
			if err := cc.check(); err != nil {
				return nil, err
			}
			candBuf = appendCandidates(candBuf[:0], m, g, opt.MaxSwapLen)
			cand := candBuf
			if len(cand) == 0 {
				return nil, fmt.Errorf("swapins: no candidate swap for gate %d (%s)", gi, g)
			}
			best := sc.pickBest(c, m, terms, gi, cand)
			opposing := isOpposing(c, m, twoQ[nextTwoQ:], best, opt.Lookahead)
			applySwap(out, m, best)
			res.SwapCount++
			if opposing {
				res.OpposingSwaps++
			}
		}
		emitMapped(out, g, m)
		nextTwoQ++
	}
	res.Physical = out
	res.FinalMapping = m
	return res, nil
}

// Stochastic is the §VI-A baseline: a seeded, trial-based randomized router
// in the spirit of Qiskit StochasticSwap. Swap lengths go up to the full
// head width and no lookahead or opposing-swap pairing is attempted.
type Stochastic struct {
	// Trials is the number of randomized attempts per unexecutable gate
	// (best attempt wins). Zero means 8.
	Trials int
	// Seed makes the pass deterministic.
	Seed int64
}

// Name implements Inserter.
func (Stochastic) Name() string { return "stochastic" }

// Insert implements Inserter.
func (s Stochastic) Insert(ctx context.Context, c *circuit.Circuit, m0 *mapping.Mapping, dev device.TILT, opt Options) (*Result, error) {
	// The baseline deliberately ignores MaxSwapLen tightening: it always
	// routes with the loosest distance (head width − 1), the first problem
	// the paper identifies with it.
	opt.MaxSwapLen = dev.MaxGateDistance()
	opt = opt.withDefaults(dev)
	if err := opt.validate(dev); err != nil {
		return nil, err
	}
	if err := checkInput(c, m0, dev); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cc := canceller{ctx: ctx}
	trials := s.Trials
	if trials == 0 {
		trials = 8
	}
	rng := rand.New(rand.NewSource(s.Seed))

	m := m0.Clone()
	out := circuit.New(dev.NumIons)
	out.Grow(c.Len())
	var twoQ []int
	for i, g := range c.Gates() {
		if g.IsTwoQubit() {
			twoQ = append(twoQ, i)
		}
	}
	res := &Result{InitialMapping: m0.Clone()}
	nextTwoQ := 0

	for gi, g := range c.Gates() {
		if err := cc.check(); err != nil {
			return nil, err
		}
		if !g.IsTwoQubit() {
			emitMapped(out, g, m)
			continue
		}
		if m.GateDistance(g.Qubits[0], g.Qubits[1]) > dev.MaxGateDistance() {
			seq := s.bestTrial(rng, m, g, dev, trials) //lint:allochot-exempt the winning swap sequence must outlive its trial to be applied
			if seq == nil {
				return nil, fmt.Errorf("swapins: stochastic routing failed for gate %d (%s)", gi, g)
			}
			for _, sw := range seq {
				opposing := isOpposing(c, m, twoQ[nextTwoQ:], sw, 50)
				applySwap(out, m, sw)
				res.SwapCount++
				if opposing {
					res.OpposingSwaps++
				}
			}
		}
		emitMapped(out, g, m)
		nextTwoQ++
	}
	res.Physical = out
	res.FinalMapping = m
	return res, nil
}

// bestTrial runs randomized routing attempts for one gate and returns the
// swap sequence of the shortest one.
func (s Stochastic) bestTrial(rng *rand.Rand, m *mapping.Mapping, g circuit.Gate, dev device.TILT, trials int) []swapOp {
	maxLen := dev.MaxGateDistance()
	var best []swapOp
	trial := m.Clone() // scratch mapping, re-synced per trial
	for t := 0; t < trials; t++ {
		trial.CopyFrom(m)
		var seq []swapOp
		for trial.GateDistance(g.Qubits[0], g.Qubits[1]) > maxLen {
			p1 := trial.Phys(g.Qubits[0])
			p2 := trial.Phys(g.Qubits[1])
			// Move a random endpoint toward the other. The step is the
			// full head width half the time (the baseline's defining
			// behaviour), otherwise a random shorter hop.
			src, dst := p1, p2
			if rng.Intn(2) == 1 {
				src, dst = p2, p1
			}
			d := dst - src
			ad := d
			if ad < 0 {
				ad = -ad
			}
			limit := maxLen
			if ad-1 < limit {
				limit = ad - 1
			}
			if limit < 1 {
				// Endpoints adjacent yet unexecutable cannot happen
				// (distance 1 ≤ maxLen); guard anyway.
				break
			}
			step := limit
			if rng.Intn(2) == 1 {
				step = 1 + rng.Intn(limit)
			}
			var to int
			if d > 0 {
				to = src + step
			} else {
				to = src - step
			}
			seq = append(seq, swapOp{a: src, b: to})
			trial.SwapPhysical(src, to)
			if len(seq) > 4*dev.NumIons {
				seq = nil // runaway trial; discard
				break
			}
		}
		if seq != nil && (best == nil || len(seq) < len(best)) {
			best = seq
		}
	}
	return best
}

// swapOp is a SWAP between two physical slots.
type swapOp struct{ a, b int }

// distAfter returns D(g, M_{qi,qj}): the distance between slots p0 and p1
// of a gate's operands once their occupants have gone through the swap.
func (s swapOp) distAfter(p0, p1 int) int {
	d := s.moved(p0) - s.moved(p1)
	if d < 0 {
		d = -d
	}
	return d
}

// moved returns the slot the occupant of slot p holds after the swap.
func (s swapOp) moved(p int) int {
	switch p {
	case s.a:
		return s.b
	case s.b:
		return s.a
	}
	return p
}

func (s swapOp) span() int {
	d := s.a - s.b
	if d < 0 {
		d = -d
	}
	return d
}

// checkInput validates the circuit/mapping pair against the device.
func checkInput(c *circuit.Circuit, m0 *mapping.Mapping, dev device.TILT) error {
	if c.NumQubits() > dev.NumIons {
		return fmt.Errorf("swapins: circuit width %d exceeds chain length %d",
			c.NumQubits(), dev.NumIons)
	}
	if m0.Len() != dev.NumIons {
		return fmt.Errorf("swapins: mapping size %d != chain length %d",
			m0.Len(), dev.NumIons)
	}
	for i, g := range c.Gates() {
		if len(g.Qubits) > 2 {
			return fmt.Errorf("swapins: gate %d (%s) has arity %d; decompose first",
				i, g.Kind, len(g.Qubits))
		}
	}
	return nil
}

// emitMapped appends gate g with its qubits relocated through m. The
// inserters reject gates of arity above two, and Add copies the operands.
func emitMapped(out *circuit.Circuit, g circuit.Gate, m *mapping.Mapping) {
	var buf [2]int
	qs := buf[:len(g.Qubits)]
	for i, q := range g.Qubits {
		qs[i] = m.Phys(q)
	}
	out.MustAdd(g.Kind, g.Theta, qs...)
}

// applySwap appends the SWAP gate and updates the mapping.
func applySwap(out *circuit.Circuit, m *mapping.Mapping, sw swapOp) {
	out.MustAdd(circuit.SWAP, 0, sw.a, sw.b)
	m.SwapPhysical(sw.a, sw.b)
}

// appendCandidates appends Algorithm 1's candidate swaps for gate g under
// mapping m to buf: each slot strictly between the endpoints paired with
// whichever endpoint lies within maxLen. Every candidate strictly shortens
// g. Callers pass buf[:0] to reuse one backing array across resolutions.
func appendCandidates(buf []swapOp, m *mapping.Mapping, g circuit.Gate, maxLen int) []swapOp {
	p1 := m.Phys(g.Qubits[0])
	p2 := m.Phys(g.Qubits[1])
	lo, hi := p1, p2
	if lo > hi {
		lo, hi = hi, lo
	}
	for s := lo + 1; s < hi; s++ {
		if s-lo <= maxLen {
			buf = append(buf, swapOp{a: lo, b: s})
		}
		if hi-s <= maxLen {
			buf = append(buf, swapOp{a: s, b: hi})
		}
	}
	return buf
}

// lookTerm is one summand of the Eq. 1 score: a lookahead gate, its
// weight α^Δ(g), and the slots its operands occupy under the current
// mapping.
type lookTerm struct {
	gi     int
	w      float64
	p0, p1 int
}

// dist returns D(g, M): the distance between the term's operand slots.
func (t lookTerm) dist() int {
	d := t.p0 - t.p1
	if d < 0 {
		d = -d
	}
	return d
}

// appendTerms appends to buf the Eq. 1 terms for resolving gate current:
// the first Lookahead of the remaining two-qubit gates, in order, each
// weighted α^Δ(g) with Δ(g) the layer distance from current (clamped at
// zero). Gates whose weight falls below 1e-9 contribute nothing and are
// left out. The weights depend only on the circuit, so one call serves
// every swap that resolves current.
func appendTerms(buf []lookTerm, c *circuit.Circuit, depths []int, remaining []int, current int, opt Options) []lookTerm {
	look := remaining
	if len(look) > opt.Lookahead {
		look = look[:opt.Lookahead]
	}
	curDepth := depths[current]
	for _, gi := range look {
		delta := depths[gi] - curDepth
		if delta < 0 {
			delta = 0
		}
		w := math.Pow(opt.Alpha, float64(delta))
		if w < 1e-9 {
			continue
		}
		buf = append(buf, lookTerm{gi: gi, w: w})
	}
	return buf
}

// scorer holds pickBest's buffers, sized once per Insert and reused by
// every call.
type scorer struct {
	// The terms with an operand in slot s are bySlot[start[s]:start[s+1]],
	// as indices into the call's terms.
	start  []int32
	bySlot []int32
	delta  []float64 // per candidate
}

// newScorer sizes a scorer for a chain of ions slots and at most terms
// lookahead terms. A gate's candidates pair slots of the chain, two per
// slot strictly between its endpoints at most.
func newScorer(ions, terms int) *scorer {
	return &scorer{
		start:  make([]int32, ions+2),
		bySlot: make([]int32, 0, 2*terms),
		delta:  make([]float64, 0, 2*ions),
	}
}

// pickBest returns the candidate with the lowest Eq. 1 score, Σ D(g, M)·α^Δ(g)
// summed over the lookahead terms in order. Scores within 1e-12 tie, and
// ties break toward the swap that shortens the current gate most, then the
// shorter swap, then slot order — all deterministic.
//
// The result is what a full scan gives — every candidate's in-order score
// S(c) folded through that comparator in candidate order, from a +Inf
// start — but only near-best candidates are fully scored. Swapping slots a
// and b moves only the terms with an operand in a or b, so δ(c), the score
// change summed over just those terms, ranks the candidates cheaply.
// Candidates with δ(c) ≤ min δ + margin are the finalists; the full scan
// runs over them alone.
//
// Why that is exact. Let E(c) be the exact real score, N the number of
// terms, u = 2⁻⁵³ and γ_k = k·u/(1−k·u); let d and d′ be a term's distance
// before and after the swap, W = Σ w, and span the longest candidate swap.
// S(c) is an in-order sum of N rounded products d′·w, so |S(c) − E(c)| ≤
// γ_N·Σ d′·w (Higham, Eq. 3.5; the weights are ≥ 1e-9, so nothing
// underflows). δ(c) sums at most 2N rounded products (d′−d)·w with
// |d′−d| ≤ span, so it is within γ_2N·span·W of its exact value
// E(c) − Σ d·w. As d′ ≤ d + span, the two errors add up to at most
// G = γ_2N·(Σ d·w + 2·span·W), and for any two candidates
// |(S(c) − S(c′)) − (δ(c) − δ(c′))| ≤ 2G.
//
// Sort the n candidates' scores and cut at the first gap wider than 1e-12.
// The cluster L below the cut holds the minimum m, lies within
// (n−1)·1e-12 of it, and every candidate outside L scores more than 1e-12
// above every member of L. In a scan over any sequence that contains L,
// the first member of L displaces whatever is held (+Inf, or a candidate
// more than 1e-12 higher), and after that no candidate outside L can
// displace a member of L; so the scan ends exactly as the scan over L
// alone does. And every member of L is a finalist: with c* the candidate
// of least δ, δ(c) − δ(c*) ≤ S(c) − S(c*) + 2G ≤ S(c) − m + 2G ≤
// (n−1)·1e-12 + 2G, below the margin (n+1)·1e-12 + 4G, which leaves room
// for the rounding of the bound itself. Both the full scan and the
// finalist scan therefore equal the scan over L.
func (sc *scorer) pickBest(c *circuit.Circuit, m *mapping.Mapping, terms []lookTerm, current int, cand []swapOp) swapOp {
	gates := c.Gates()
	// Index the terms by slot: count into start[s+2], prefix-sum, then
	// fill with start[s+1] as slot s's cursor, which leaves slot s's
	// entries at start[s]:start[s+1].
	clear(sc.start)
	base, weight := 0.0, 0.0
	for i := range terms {
		t := &terms[i]
		qs := gates[t.gi].Qubits
		t.p0, t.p1 = m.Phys(qs[0]), m.Phys(qs[1])
		sc.start[t.p0+2]++
		sc.start[t.p1+2]++
		base += float64(t.dist()) * t.w
		weight += t.w
	}
	for s := 2; s < len(sc.start); s++ {
		sc.start[s] += sc.start[s-1]
	}
	sc.bySlot = sc.bySlot[:2*len(terms)]
	for i, t := range terms {
		for _, p := range [2]int{t.p0, t.p1} {
			sc.bySlot[sc.start[p+1]] = int32(i)
			sc.start[p+1]++
		}
	}

	// δ per candidate. A term with operands in both a and b keeps its
	// distance, so visiting it from both slots adds zero twice.
	sc.delta = sc.delta[:0]
	minDelta, span := math.Inf(1), 0
	for _, sw := range cand {
		d := 0.0
		for _, p := range [2]int{sw.a, sw.b} {
			for _, i := range sc.bySlot[sc.start[p]:sc.start[p+1]] {
				t := terms[i]
				d += float64(sw.distAfter(t.p0, t.p1)-t.dist()) * t.w
			}
		}
		sc.delta = append(sc.delta, d)
		minDelta = min(minDelta, d)
		span = max(span, sw.span())
	}
	k := float64(2*len(terms)) * 0x1p-53
	margin := float64(len(cand)+1)*1e-12 + 4*k/(1-k)*(base+2*float64(span)*weight)

	best := cand[0]
	bestScore := math.Inf(1)
	bestCur := math.MaxInt32
	for ci, sw := range cand {
		if sc.delta[ci] > minDelta+margin {
			continue
		}
		score := 0.0
		curAfter := 0
		for _, t := range terms {
			d := sw.distAfter(t.p0, t.p1)
			score += float64(d) * t.w
			if t.gi == current {
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

// betterTie orders tied candidates: shorter resulting current-gate distance,
// then shorter swap span, then lower slots.
func betterTie(sw swapOp, cur int, oldSw swapOp, oldCur int) bool {
	if cur != oldCur {
		return cur < oldCur
	}
	if sw.span() != oldSw.span() {
		return sw.span() < oldSw.span()
	}
	if sw.a != oldSw.a {
		return sw.a < oldSw.a
	}
	return sw.b < oldSw.b
}

// isOpposing classifies a swap (Fig. 2c): it must strictly shorten at least
// one pending gate via the logical qubit moving right and at least one
// different pending gate via the one moving left.
func isOpposing(c *circuit.Circuit, m *mapping.Mapping, remaining []int, sw swapOp, lookahead int) bool {
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
		after := sw.distAfter(m.Phys(g.Qubits[0]), m.Phys(g.Qubits[1]))
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
