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

// machine is the mutable QCCD state during simulation.
type machine struct {
	dev device.QCCD
	p   noise.Params

	chains [][]int        // per-trap ordered logical qubits
	trapOf []int          // logical qubit -> trap index
	quanta []float64      // per-trap motional quanta
	avail  []float64      // per-qubit ready time, µs
	gates  []circuit.Gate // full program, for routing lookahead

	logF   float64
	fidSum float64
	fidN   int
	res    *Result
}

// Run simulates the circuit (arity ≤ 2; run internal/decompose first) on a
// QCCD device with the given noise parameters. Cancellation of ctx is
// observed between gates.
func Run(ctx context.Context, c *circuit.Circuit, dev device.QCCD, p noise.Params) (*Result, error) {
	if err := dev.Validate(); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if c.NumQubits() > dev.NumQubits {
		return nil, fmt.Errorf("qccd: circuit width %d exceeds device %d",
			c.NumQubits(), dev.NumQubits)
	}
	for i, g := range c.Gates() {
		if len(g.Qubits) > 2 {
			return nil, fmt.Errorf("qccd: gate %d (%s) has arity %d; decompose first",
				i, g, len(g.Qubits))
		}
	}

	m := newMachine(dev, p)
	m.gates = c.Gates()
	for i, g := range m.gates {
		if i%cancelCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		switch {
		case g.Kind == circuit.Measure:
		case !g.IsTwoQubit():
			m.oneQubit(g.Qubits[0])
		default:
			if err := m.twoQubit(i, g.Qubits[0], g.Qubits[1]); err != nil {
				return nil, err
			}
		}
	}
	return m.finish(), nil
}

func newMachine(dev device.QCCD, p noise.Params) *machine {
	numTraps := dev.NumTraps()
	m := &machine{
		dev:    dev,
		p:      p,
		chains: make([][]int, numTraps),
		trapOf: make([]int, dev.NumQubits),
		quanta: make([]float64, numTraps),
		avail:  make([]float64, dev.NumQubits),
		res:    &Result{Capacity: dev.Capacity},
	}
	// Distribute qubits in index order, leaving one transit slot per trap.
	perTrap := dev.Capacity - 1
	for q := 0; q < dev.NumQubits; q++ {
		t := q / perTrap
		if t >= numTraps {
			t = numTraps - 1
		}
		m.chains[t] = append(m.chains[t], q)
		m.trapOf[q] = t
	}
	return m
}

func (m *machine) oneQubit(q int) {
	m.logF += math.Log1p(-m.p.OneQubitError)
	m.res.OneQubitGates++
	m.avail[q] += m.p.OneQubitTimeUs
}

// routingLookahead bounds how many upcoming two-qubit gates traveler
// selection examines.
const routingLookahead = 96

// twoQubit executes the gate at index gi, shuttling one operand to the
// other's trap if needed.
//
// Traveler selection looks ahead: the endpoint that has more upcoming gates
// with residents of the other endpoint's trap travels, so a hub qubit (QFT's
// cascade source) moves once into a remote block instead of dragging each
// partner over one by one — the same block-affinity idea the QCCD literature
// uses to keep shuttle counts near-linear.
func (m *machine) twoQubit(gi, a, b int) error {
	if m.trapOf[a] != m.trapOf[b] {
		if m.affinity(gi, b, m.trapOf[a]) > m.affinity(gi, a, m.trapOf[b]) {
			a, b = b, a
		}
		if err := m.shuttle(a, m.trapOf[b], a, b); err != nil {
			return err
		}
	}
	t := m.trapOf[a]
	d := m.chainDistance(t, a, b)
	m.applyTwoQubitGate(a, b, d, 1)
	m.res.TwoQubitGates++
	return nil
}

// affinity counts upcoming two-qubit gates (within the lookahead window,
// starting at gate gi) that pair qubit q with a current resident of trap t.
func (m *machine) affinity(gi, q, t int) int {
	count := 0
	seen := 0
	for i := gi; i < len(m.gates) && seen < routingLookahead; i++ {
		g := m.gates[i]
		if !g.IsTwoQubit() {
			continue
		}
		seen++
		var other int
		switch {
		case g.Qubits[0] == q:
			other = g.Qubits[1]
		case g.Qubits[1] == q:
			other = g.Qubits[0]
		default:
			continue
		}
		if m.trapOf[other] == t {
			count++
		}
	}
	return count
}

// chainDistance returns the in-chain separation of two qubits co-resident in
// trap t, in ion spacings.
func (m *machine) chainDistance(t, a, b int) int {
	pa, pb := -1, -1
	for i, q := range m.chains[t] {
		if q == a {
			pa = i
		}
		if q == b {
			pb = i
		}
	}
	if pa < 0 || pb < 0 {
		panic(fmt.Sprintf("qccd: qubits %d,%d not co-resident in trap %d", a, b, t))
	}
	d := pa - pb
	if d < 0 {
		d = -d
	}
	return d
}

// applyTwoQubitGate accounts fidelity and timing for reps two-qubit gate
// applications of span d in qubit a's trap, then lets the trap's
// sympathetic cooling bleed off motional quanta.
func (m *machine) applyTwoQubitGate(a, b, d, reps int) {
	t := m.trapOf[a]
	tau := m.p.GateTime(d)
	for r := 0; r < reps; r++ {
		err := m.p.TwoQubitError(tau, m.quanta[t])
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
	pos := m.chainIndex(src, q)
	var edge int
	if dir > 0 {
		edge = len(m.chains[src]) - 1
	}
	for pos != edge {
		step := 1
		if edge < pos {
			step = -1
		}
		other := m.chains[src][pos+step]
		m.chains[src][pos], m.chains[src][pos+step] = other, q
		m.quanta[src] += reorderFactor * m.p.SplitMergeFactor * m.p.ShuttleQuanta(len(m.chains[src]))
		m.avail[q] += reorderUs
		m.res.EdgeSwaps++
		pos += step
	}

	// Split: remove q from src; heats the source chain.
	m.chains[src] = removeAt(m.chains[src], pos)
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
		m.chains[dst] = append([]int{q}, m.chains[dst]...)
	} else {
		m.chains[dst] = append(m.chains[dst], q)
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

func (m *machine) chainIndex(t, q int) int {
	for i, qq := range m.chains[t] {
		if qq == q {
			return i
		}
	}
	panic(fmt.Sprintf("qccd: qubit %d not in trap %d", q, t))
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

func removeAt(s []int, i int) []int {
	out := make([]int, 0, len(s)-1)
	out = append(out, s[:i]...)
	return append(out, s[i+1:]...)
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
	results := make([]*Result, len(caps))
	errs := make([]error, len(caps))
	var wg sync.WaitGroup
	for i, capacity := range caps {
		wg.Add(1)
		go func(i, capacity int) {
			defer wg.Done()
			r, err := Run(ctx, c, device.QCCD{NumQubits: numQubits, Capacity: capacity}, p)
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

// Invariant checks the machine's structural invariants; exported for tests
// via RunChecked.
func (m *machine) invariant() error {
	seen := make([]bool, m.dev.NumQubits)
	for t, chain := range m.chains {
		if len(chain) > m.dev.Capacity {
			return fmt.Errorf("qccd: trap %d over capacity: %d > %d",
				t, len(chain), m.dev.Capacity)
		}
		for _, q := range chain {
			if seen[q] {
				return fmt.Errorf("qccd: qubit %d in two traps", q)
			}
			seen[q] = true
			if m.trapOf[q] != t {
				return fmt.Errorf("qccd: qubit %d trapOf mismatch", q)
			}
		}
	}
	for q, ok := range seen {
		if !ok {
			return fmt.Errorf("qccd: qubit %d lost", q)
		}
	}
	return nil
}

// RunChecked is Run with the structural invariant re-verified after every
// gate — slower, used by tests and debugging.
func RunChecked(ctx context.Context, c *circuit.Circuit, dev device.QCCD, p noise.Params) (*Result, error) {
	if err := dev.Validate(); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if c.NumQubits() > dev.NumQubits {
		return nil, fmt.Errorf("qccd: circuit width %d exceeds device %d",
			c.NumQubits(), dev.NumQubits)
	}
	m := newMachine(dev, p)
	m.gates = c.Gates()
	if err := m.invariant(); err != nil {
		return nil, err
	}
	for i, g := range m.gates {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		switch {
		case g.Kind == circuit.Measure:
		case len(g.Qubits) > 2:
			return nil, fmt.Errorf("qccd: gate %d arity %d", i, len(g.Qubits))
		case !g.IsTwoQubit():
			m.oneQubit(g.Qubits[0])
		default:
			if err := m.twoQubit(i, g.Qubits[0], g.Qubits[1]); err != nil {
				return nil, err
			}
		}
		if err := m.invariant(); err != nil {
			return nil, fmt.Errorf("after gate %d (%s): %w", i, g, err)
		}
	}
	return m.finish(), nil
}
