// Package qccd models the linear-topology QCCD trapped-ion machine the paper
// compares against (Murali et al., §VI-B): a row of traps, each holding a
// short ion chain, connected by shuttling segments. A two-qubit gate between
// different traps requires the Fig. 3 sequence — swap the ion to the trap
// edge, split it off, shuttle it across segments, and merge it into the
// destination chain — each step heating the chains it touches. Gates then
// obey the same Eq. 3/4 noise model as TILT, with per-trap motional quanta.
//
// The paper sweeps trap capacity over 15–35 ions and quotes the best
// configuration; RunBestCapacity reproduces that selection.
package qccd

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/noise"
)

// cancelCheckStride is how many gates run between context checks.
const cancelCheckStride = 1024

// The calibrated QCCD physical model beyond noise.Params (README,
// "Calibration and substitutions"). The paper's QCCD source models split,
// merge and segment crossings as fixed-cost primitives, each on the order of
// a hundred microseconds in the trapped-ion literature.
//
// QCCD machines (Honeywell-style) sympathetically cool their chains
// continuously, so transport heating decays between gate applications rather
// than accumulating for the whole program the way an uncooled TILT chain
// does. In-chain repositioning ("swap the qubit to the end of the trap",
// Fig. 3 step i) is a physical transport primitive, not a logical SWAP gate:
// it costs time and reorderFactor-scaled heating but no gate error.
const (
	splitUs   = 80  // split one ion off a chain, µs
	mergeUs   = 80  // merge one ion into a chain, µs
	hopUs     = 100 // cross one shuttling segment, µs
	reorderUs = 40  // one-position in-chain ion transposition, µs

	// coolingDecay multiplies a trap's quanta after each two-qubit gate
	// application in it.
	coolingDecay = 0.995
	// reorderFactor scales the split/merge heating for a one-position
	// in-chain transposition.
	reorderFactor = 0.15
)

// Result reports the simulated metrics of one QCCD execution.
type Result struct {
	SuccessRate float64
	LogSuccess  float64
	ExecTimeUs  float64
	// Capacity is the trap size this result was computed for.
	Capacity int
	// Operation census.
	OneQubitGates int
	TwoQubitGates int
	EdgeSwaps     int // in-chain transpositions bringing ions to trap edges
	Splits        int
	Merges        int
	Hops          int // segment crossings
	// MeanTwoQubitFidelity averages Eq. 4 fidelity over two-qubit gate
	// applications.
	MeanTwoQubitFidelity float64
}

// Kinds of the routing index's op stream.
const (
	opMeasure int32 = iota // no machine work; the zero op
	opOne
	opTwo
)

// op is one gate of the routing index's op stream.
type op struct {
	kind   int32
	q0, q1 int32
}

// partner is one two-qubit gate seen from one of its operands: the gate's
// ordinal among the circuit's two-qubit gates and the other operand.
type partner struct {
	ord, other int32
}

// index is the routing view of one circuit: its gates as a compact op
// stream and, for each qubit, the two-qubit gates it takes part in, in
// program order. It is read-only once built, so every machine of a
// capacity sweep shares one.
type index struct {
	ops []op
	occ [][]partner
}

// newIndex checks that the circuit fits numQubits qubits and has arity ≤ 2,
// then builds its routing index.
func newIndex(c *circuit.Circuit, numQubits int) (*index, error) {
	if c.NumQubits() > numQubits {
		return nil, fmt.Errorf("qccd: circuit width %d exceeds device %d",
			c.NumQubits(), numQubits)
	}
	gates := c.Gates()
	ix := &index{ops: make([]op, len(gates)), occ: make([][]partner, c.NumQubits())}
	deg := make([]int, c.NumQubits())
	twoQubit := 0
	for i, g := range gates {
		// A circuit's gates carry exactly their kind's arity of qubits.
		switch qs := g.Qubits; {
		case len(qs) > 2:
			return nil, fmt.Errorf("qccd: gate %d (%s) has arity %d; decompose first",
				i, g, len(qs))
		case len(qs) == 2:
			ix.ops[i] = op{kind: opTwo, q0: int32(qs[0]), q1: int32(qs[1])}
			deg[qs[0]]++
			deg[qs[1]]++
			twoQubit++
		case g.Kind != circuit.Measure:
			ix.ops[i] = op{kind: opOne, q0: int32(qs[0])}
		}
	}
	flat := make([]partner, 2*twoQubit)
	for q, d := range deg {
		ix.occ[q], flat = flat[:0:d], flat[d:]
	}
	k := int32(0)
	for _, o := range ix.ops {
		if o.kind == opTwo {
			ix.occ[o.q0] = append(ix.occ[o.q0], partner{k, o.q1})
			ix.occ[o.q1] = append(ix.occ[o.q1], partner{k, o.q0})
			k++
		}
	}
	return ix, nil
}

// machine is the mutable QCCD state during simulation.
type machine struct {
	dev device.QCCD
	p   noise.Params
	ix  *index

	chains [][]int   // per-trap ordered logical qubits
	trapOf []int     // logical qubit -> trap index
	pos    []int     // logical qubit -> index in its trap's chain
	quanta []float64 // per-trap motional quanta
	avail  []float64 // per-qubit ready time, µs
	cursor []int     // per qubit: first ix.occ entry not behind the current gate

	// logOne and logEps are log1p(-OneQubitError) and log1p(Epsilon),
	// the per-gate logarithms of the noise model computed once.
	logOne, logEps float64

	logF   float64
	fidSum float64
	fidN   int
	res    *Result
}

// Run simulates the circuit (arity ≤ 2; run internal/decompose first) on a
// QCCD device with the given noise parameters. Cancellation of ctx is
// observed between gates.
func Run(ctx context.Context, c *circuit.Circuit, dev device.QCCD, p noise.Params) (*Result, error) {
	ix, err := newIndex(c, dev.NumQubits)
	if err != nil {
		return nil, err
	}
	return simulate(ctx, ix, dev, p, nil)
}

// simulate runs one machine over the index's op stream. A non-nil check
// runs after every gate i; its error aborts the run.
func simulate(ctx context.Context, ix *index, dev device.QCCD, p noise.Params, check func(m *machine, i int) error) (*Result, error) {
	if err := dev.Validate(); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	m := newMachine(ix, dev, p)
	k := 0 // ordinal of the next two-qubit gate
	for i, o := range ix.ops {
		if i%cancelCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		switch o.kind {
		case opOne:
			m.oneQubit(int(o.q0))
		case opTwo:
			if err := m.twoQubit(k, int(o.q0), int(o.q1)); err != nil {
				return nil, err
			}
			k++
		}
		if check != nil {
			if err := check(m, i); err != nil {
				return nil, err
			}
		}
	}
	return m.finish(), nil
}

func newMachine(ix *index, dev device.QCCD, p noise.Params) *machine {
	numTraps := dev.NumTraps()
	m := &machine{
		dev:    dev,
		p:      p,
		ix:     ix,
		chains: make([][]int, numTraps),
		trapOf: make([]int, dev.NumQubits),
		pos:    make([]int, dev.NumQubits),
		quanta: make([]float64, numTraps),
		avail:  make([]float64, dev.NumQubits),
		cursor: make([]int, len(ix.occ)),
		logOne: math.Log1p(-p.OneQubitError),
		logEps: math.Log1p(p.Epsilon),
		res:    &Result{Capacity: dev.Capacity},
	}
	// Each chain owns Capacity slots of one buffer, so splits and merges
	// work in place.
	buf := make([]int, numTraps*dev.Capacity)
	for t := range m.chains {
		m.chains[t] = buf[t*dev.Capacity : t*dev.Capacity : (t+1)*dev.Capacity]
	}
	// Distribute qubits in index order, leaving one transit slot per trap.
	perTrap := dev.Capacity - 1
	for q := 0; q < dev.NumQubits; q++ {
		t := q / perTrap
		if t >= numTraps {
			t = numTraps - 1
		}
		m.pos[q] = len(m.chains[t])
		m.chains[t] = append(m.chains[t], q)
		m.trapOf[q] = t
	}
	return m
}

func (m *machine) oneQubit(q int) {
	m.logF += m.logOne
	m.res.OneQubitGates++
	m.avail[q] += m.p.OneQubitTimeUs
}

// routingLookahead bounds how many upcoming two-qubit gates traveler
// selection examines.
const routingLookahead = 96

// twoQubit executes the k-th two-qubit gate of the circuit, shuttling one
// operand to the other's trap if needed.
//
// Traveler selection looks ahead: the endpoint that has more upcoming gates
// with residents of the other endpoint's trap travels, so a hub qubit (QFT's
// cascade source) moves once into a remote block instead of dragging each
// partner over one by one — the same block-affinity idea the QCCD literature
// uses to keep shuttle counts near-linear.
func (m *machine) twoQubit(k, a, b int) error {
	if m.trapOf[a] != m.trapOf[b] {
		if m.affinity(k, b, m.trapOf[a]) > m.affinity(k, a, m.trapOf[b]) {
			a, b = b, a
		}
		if err := m.shuttle(a, m.trapOf[b], a, b); err != nil {
			return err
		}
	}
	// The operands now share a trap; d is their separation in ion spacings.
	d := m.pos[a] - m.pos[b]
	if d < 0 {
		d = -d
	}
	m.applyTwoQubitGate(a, b, d, 1)
	m.res.TwoQubitGates++
	return nil
}

// affinity counts the two-qubit gates with ordinals in the lookahead window
// [k, k+routingLookahead) that pair qubit q with a current resident of
// trap t. Gates run in program order, so q's cursor only moves forward and
// a call costs q's degree within the window.
func (m *machine) affinity(k, q, t int) int {
	occ := m.ix.occ[q]
	i := m.cursor[q]
	for i < len(occ) && int(occ[i].ord) < k {
		i++
	}
	m.cursor[q] = i
	count := 0
	for end := k + routingLookahead; i < len(occ) && int(occ[i].ord) < end; i++ {
		if m.trapOf[occ[i].other] == t {
			count++
		}
	}
	return count
}

// applyTwoQubitGate accounts fidelity and timing for reps two-qubit gate
// applications of span d in qubit a's trap, then lets the trap's
// sympathetic cooling bleed off motional quanta.
func (m *machine) applyTwoQubitGate(a, b, d, reps int) {
	t := m.trapOf[a]
	tau := m.p.GateTime(d)
	for r := 0; r < reps; r++ {
		err := m.p.TwoQubitErrorLog(tau, m.quanta[t], m.logEps)
		m.logF += safeLog1p(-err)
		m.fidSum += 1 - err
		m.fidN++
		m.quanta[t] *= coolingDecay
	}
	start := math.Max(m.avail[a], m.avail[b])
	end := start + float64(reps)*tau
	m.avail[a] = end
	m.avail[b] = end
}

// shuttle moves qubit q into trap dst: swap to edge, split, hop across
// segments, merge (paper Fig. 3). The destination is rebalanced first if
// full; the protected qubits (the traveler and the ion it meets) are never
// chosen as eviction victims.
func (m *machine) shuttle(q, dst, prot1, prot2 int) error {
	src := m.trapOf[q]
	if src == dst {
		return nil
	}
	dir := 1
	if dst < src {
		dir = -1
	}
	// Ensure space in the destination, evicting away from the source so
	// the evicted ion does not collide with q's journey.
	if err := m.ensureSpace(dst, dir, prot1, prot2); err != nil {
		return err
	}

	// Reposition q to the edge of src facing dst: physical in-chain
	// transport (heating + time), not logical SWAP gates.
	chain := m.chains[src]
	pos := m.pos[q]
	var edge int
	if dir > 0 {
		edge = len(chain) - 1
	}
	for pos != edge {
		step := 1
		if edge < pos {
			step = -1
		}
		other := chain[pos+step]
		chain[pos], chain[pos+step] = other, q
		m.pos[other], m.pos[q] = pos, pos+step
		m.quanta[src] += reorderFactor * m.p.SplitMergeFactor * m.p.ShuttleQuanta(len(m.chains[src]))
		m.avail[q] += reorderUs
		m.res.EdgeSwaps++
		pos += step
	}

	// Split: remove q from src; heats the source chain.
	m.chains[src] = slices.Delete(chain, pos, pos+1)
	m.reindex(src, pos)
	m.quanta[src] += m.p.SplitMergeFactor * m.p.ShuttleQuanta(len(m.chains[src])+1)
	m.res.Splits++
	m.avail[q] += splitUs

	// Hop across segments. A lone shuttled ion accrues carry quanta that
	// it deposits into the destination chain on merge.
	hops := dst - src
	if hops < 0 {
		hops = -hops
	}
	carried := float64(hops) * m.p.HopFactor * m.p.ShuttleQuanta(1)
	m.res.Hops += hops
	m.avail[q] += float64(hops) * hopUs

	// Merge at the edge of dst facing src; heats the destination chain.
	if dir > 0 {
		m.chains[dst] = slices.Insert(m.chains[dst], 0, q)
		m.reindex(dst, 0)
	} else {
		m.chains[dst] = append(m.chains[dst], q)
		m.reindex(dst, len(m.chains[dst])-1)
	}
	m.trapOf[q] = dst
	m.quanta[dst] += m.p.SplitMergeFactor*m.p.ShuttleQuanta(len(m.chains[dst])) + carried
	m.res.Merges++
	m.avail[q] += mergeUs
	return nil
}

// ensureSpace makes room in trap t by evicting an ion toward direction dir
// (recursively pushing into fuller neighbors if needed). Protected qubits
// are never evicted.
func (m *machine) ensureSpace(t, dir, prot1, prot2 int) error {
	if len(m.chains[t]) < m.dev.Capacity {
		return nil
	}
	next := t + dir
	if next < 0 || next >= len(m.chains) {
		dir = -dir
		next = t + dir
		if next < 0 || next >= len(m.chains) {
			return fmt.Errorf("qccd: single full trap cannot rebalance")
		}
	}
	// Evict the ion nearest the overflow edge that is not protected.
	chain := m.chains[t]
	victim := -1
	if dir > 0 {
		for i := len(chain) - 1; i >= 0; i-- {
			if chain[i] != prot1 && chain[i] != prot2 {
				victim = chain[i]
				break
			}
		}
	} else {
		for i := 0; i < len(chain); i++ {
			if chain[i] != prot1 && chain[i] != prot2 {
				victim = chain[i]
				break
			}
		}
	}
	if victim < 0 {
		return fmt.Errorf("qccd: trap %d holds only protected ions", t)
	}
	return m.shuttle(victim, next, prot1, prot2)
}

// reindex records the chain positions of trap t's ions from index from on.
func (m *machine) reindex(t, from int) {
	for i, q := range m.chains[t][from:] {
		m.pos[q] = from + i
	}
}

func (m *machine) finish() *Result {
	m.res.LogSuccess = m.logF
	m.res.SuccessRate = math.Exp(m.logF)
	for _, a := range m.avail {
		if a > m.res.ExecTimeUs {
			m.res.ExecTimeUs = a
		}
	}
	if m.fidN > 0 {
		m.res.MeanTwoQubitFidelity = m.fidSum / float64(m.fidN)
	}
	return m.res
}

func safeLog1p(x float64) float64 {
	if x <= -1 {
		return -745
	}
	return math.Log1p(x)
}

// RunBestCapacity sweeps trap capacities (default 15–35, the paper's range)
// and returns the best result by success rate, as the paper's comparison
// quotes the highest-fidelity QCCD configuration. The sweep points are
// independent machines, so they run concurrently; ties break toward the
// smaller capacity for determinism.
func RunBestCapacity(ctx context.Context, c *circuit.Circuit, numQubits int, caps []int, p noise.Params) (*Result, error) {
	if len(caps) == 0 {
		for cap := 15; cap <= 35; cap += 2 {
			caps = append(caps, cap)
		}
	}
	ix, err := newIndex(c, numQubits)
	if err != nil {
		return nil, err
	}
	results := make([]*Result, len(caps))
	errs := make([]error, len(caps))
	var wg sync.WaitGroup
	for i, capacity := range caps {
		wg.Add(1)
		go func(i, capacity int) {
			defer wg.Done()
			r, err := simulate(ctx, ix, device.QCCD{NumQubits: numQubits, Capacity: capacity}, p, nil)
			results[i], errs[i] = r, err
		}(i, capacity)
	}
	wg.Wait()
	var best *Result
	for i, r := range results {
		if errs[i] != nil {
			return nil, fmt.Errorf("qccd: capacity %d: %w", caps[i], errs[i])
		}
		if best == nil || r.LogSuccess > best.LogSuccess ||
			(r.LogSuccess == best.LogSuccess && r.Capacity < best.Capacity) {
			best = r
		}
	}
	return best, nil
}
