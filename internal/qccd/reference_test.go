package qccd

// refMachine is the same QCCD machine model without the routing index:
// affinity rescans the next routingLookahead two-qubit gates of the full
// gate list, chain positions are found by scanning, splits and merges
// allocate new chains, and every gate re-derives its logarithms. It is the
// oracle the differential tests hold the indexed machine to, bit for bit;
// keep it unoptimised.

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/circuit"
	"repro/internal/decompose"
	"repro/internal/device"
	"repro/internal/noise"
	"repro/internal/workloads"
)

// sameResult reports the first field in which got and want differ, floats
// compared bit for bit, or "" if they are identical.
func sameResult(got, want *Result) string {
	for _, f := range []struct {
		name string
		g, w float64
	}{
		{"SuccessRate", got.SuccessRate, want.SuccessRate},
		{"LogSuccess", got.LogSuccess, want.LogSuccess},
		{"ExecTimeUs", got.ExecTimeUs, want.ExecTimeUs},
		{"MeanTwoQubitFidelity", got.MeanTwoQubitFidelity, want.MeanTwoQubitFidelity},
	} {
		if math.Float64bits(f.g) != math.Float64bits(f.w) {
			return fmt.Sprintf("%s %b, want %b", f.name, f.g, f.w)
		}
	}
	g, w := *got, *want
	g.SuccessRate, g.LogSuccess, g.ExecTimeUs, g.MeanTwoQubitFidelity = 0, 0, 0, 0
	w.SuccessRate, w.LogSuccess, w.ExecTimeUs, w.MeanTwoQubitFidelity = 0, 0, 0, 0
	if g != w {
		return fmt.Sprintf("census %+v, want %+v", g, w)
	}
	return ""
}

// TestRunMatchesReference: on the six Table II families at widths 16, 40
// and 64, every capacity of the paper's sweep gives the reference
// machine's Result exactly.
func TestRunMatchesReference(t *testing.T) {
	ctx := context.Background()
	p := noise.Default()
	for _, w := range []int{16, 40, 64} {
		for _, bm := range workloads.Scaled(w, int64(w)) {
			nat := decompose.ToNative(bm.Circuit)
			for capacity := 15; capacity <= 35; capacity += 2 {
				dev := device.QCCD{NumQubits: w, Capacity: capacity}
				got, err := Run(ctx, nat, dev, p)
				if err != nil {
					t.Fatal(err)
				}
				want, err := refRun(ctx, nat, dev, p)
				if err != nil {
					t.Fatal(err)
				}
				if diff := sameResult(got, want); diff != "" {
					t.Errorf("%s-%d capacity %d: %s", bm.Name, w, capacity, diff)
				}
			}
		}
	}
}

// TestLookaheadWindowEdge: which operand of a cross-trap gate travels can
// turn on the gates in the lookahead window's last slot and in the first
// slot past it, so the machine must count exactly the reference's window.
func TestLookaheadWindowEdge(t *testing.T) {
	ctx := context.Background()
	// Capacity 5 puts qubits 0–3 in trap 0, 4–7 in trap 1 and 8–11 in
	// trap 2. Gate 0 pairs 0 with 4; later gates give 4 a second partner
	// in trap 0 at ordinal at, and 0 one in trap 1 at ordinal at+1. On a
	// tie the first operand, 0, travels.
	dev := device.QCCD{NumQubits: 12, Capacity: 5}
	for _, tc := range []struct {
		at          int
		zeroTravels bool
	}{
		{routingLookahead - 2, true},  // both in the window
		{routingLookahead - 1, false}, // only 4's second partner in it
		{routingLookahead, true},      // neither in it
	} {
		c := circuit.New(12)
		c.ApplyXX(math.Pi/4, 0, 4)
		for k := 1; k < tc.at; k++ {
			c.ApplyXX(math.Pi/4, 8, 9)
		}
		c.ApplyXX(math.Pi/4, 4, 1)
		c.ApplyXX(math.Pi/4, 0, 5)
		ix, err := newIndex(c, dev.NumQubits)
		if err != nil {
			t.Fatal(err)
		}
		zeroTravels := false
		got, err := simulate(ctx, ix, dev, noise.Default(), func(m *machine, i int) error {
			if i == 0 {
				zeroTravels = m.trapOf[0] == 1
			}
			return m.invariant()
		})
		if err != nil {
			t.Fatal(err)
		}
		if zeroTravels != tc.zeroTravels {
			t.Errorf("second partners at ordinals %d and %d: qubit 0 travels = %v, want %v",
				tc.at, tc.at+1, zeroTravels, tc.zeroTravels)
		}
		want, err := refRun(ctx, c, dev, noise.Default())
		if err != nil {
			t.Fatal(err)
		}
		if diff := sameResult(got, want); diff != "" {
			t.Errorf("second partners at ordinals %d and %d: %s", tc.at, tc.at+1, diff)
		}
	}
}

// FuzzQCCDMatchesReference: on random circuits of arity ≤ 2, widths 2–40
// and capacities 3–35, Run returns the reference machine's Result or
// error exactly, and the structural invariants hold after every gate.
func FuzzQCCDMatchesReference(f *testing.F) {
	f.Add([]byte{14, 2, 0x13, 7, 0x42, 11, 0x90, 3, 0x05, 0xff, 0x21})
	f.Add([]byte{38, 0, 3, 0x4b, 7, 0xa5, 3, 0xff, 0, 1, 0x77, 0x31, 0x03, 0x9e})
	f.Add([]byte{0, 0, 3, 1})
	f.Add([]byte{30, 32, 0x0b, 0x1b, 0x2b, 0x3b, 0x4b, 0x5b, 0x6b, 0x7b})

	f.Fuzz(func(t *testing.T, data []byte) {
		// Up to 160 gates, three in four of them XX, so the routing
		// lookahead's 96-gate window both fills and slides. Longer inputs
		// are skipped rather than cut, so the fuzzer does not keep and
		// minimise bytes that never reach the machine.
		if len(data) < 2 || len(data) > 2+2*160 {
			return
		}
		n := 2 + int(data[0])%39
		dev := device.QCCD{NumQubits: n, Capacity: 3 + int(data[1])%33}
		c := circuit.New(n)
		for body := data[2:]; len(body) >= 2; body = body[2:] {
			a, b := int(body[0]), int(body[1])
			q0 := b % n
			switch a % 8 {
			case 0:
				c.ApplyRX(float64(a>>3+1)*math.Pi/32, q0)
			case 1:
				c.ApplyMeasure(q0)
			default:
				c.ApplyXX(math.Pi/4, q0, (q0+1+(b/n+a>>3)%(n-1))%n)
			}
		}
		p := noise.Default()
		ctx := context.Background()
		got, err := RunChecked(ctx, c, dev, p)
		want, refErr := refRun(ctx, c, dev, p)
		if fmt.Sprint(err) != fmt.Sprint(refErr) {
			t.Fatalf("n=%d cap=%d: error %v, reference %v", n, dev.Capacity, err, refErr)
		}
		if err != nil {
			return
		}
		if diff := sameResult(got, want); diff != "" {
			t.Fatalf("n=%d cap=%d: %s", n, dev.Capacity, diff)
		}
	})
}

// refMachine is the reference machine's mutable state.
type refMachine struct {
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

// refRun is Run on the reference machine.
func refRun(ctx context.Context, c *circuit.Circuit, dev device.QCCD, p noise.Params) (*Result, error) {
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

	m := newRefMachine(dev, p)
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

func newRefMachine(dev device.QCCD, p noise.Params) *refMachine {
	numTraps := dev.NumTraps()
	m := &refMachine{
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

func (m *refMachine) oneQubit(q int) {
	m.logF += math.Log1p(-m.p.OneQubitError)
	m.res.OneQubitGates++
	m.avail[q] += m.p.OneQubitTimeUs
}

// twoQubit executes the gate at index gi, shuttling one operand to the
// other's trap if needed.
//
// Traveler selection looks ahead: the endpoint that has more upcoming gates
// with residents of the other endpoint's trap travels, so a hub qubit (QFT's
// cascade source) moves once into a remote block instead of dragging each
// partner over one by one — the same block-affinity idea the QCCD literature
// uses to keep shuttle counts near-linear.
func (m *refMachine) twoQubit(gi, a, b int) error {
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
func (m *refMachine) affinity(gi, q, t int) int {
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
func (m *refMachine) chainDistance(t, a, b int) int {
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
func (m *refMachine) applyTwoQubitGate(a, b, d, reps int) {
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
func (m *refMachine) shuttle(q, dst, prot1, prot2 int) error {
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
	m.chains[src] = refRemoveAt(m.chains[src], pos)
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
func (m *refMachine) ensureSpace(t, dir, prot1, prot2 int) error {
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

func (m *refMachine) chainIndex(t, q int) int {
	for i, qq := range m.chains[t] {
		if qq == q {
			return i
		}
	}
	panic(fmt.Sprintf("qccd: qubit %d not in trap %d", q, t))
}

func (m *refMachine) finish() *Result {
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

func refRemoveAt(s []int, i int) []int {
	out := make([]int, 0, len(s)-1)
	out = append(out, s[:i]...)
	return append(out, s[i+1:]...)
}
