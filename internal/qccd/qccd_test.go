package qccd

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/circuit"
	"repro/internal/decompose"
	"repro/internal/device"
	"repro/internal/noise"
	"repro/internal/workloads"
)

// RunChecked is Run with the structural invariants re-verified after every
// gate.
func RunChecked(ctx context.Context, c *circuit.Circuit, dev device.QCCD, p noise.Params) (*Result, error) {
	ix, err := newIndex(c, dev.NumQubits)
	if err != nil {
		return nil, err
	}
	return simulate(ctx, ix, dev, p, func(m *machine, i int) error {
		if err := m.invariant(); err != nil {
			return fmt.Errorf("after gate %d (%s): %w", i, c.Gate(i), err)
		}
		return nil
	})
}

// invariant checks that every qubit sits in exactly one chain, at the trap
// trapOf names and the index pos names, and that no trap is over capacity.
func (m *machine) invariant() error {
	seen := make([]bool, m.dev.NumQubits)
	for t, chain := range m.chains {
		if len(chain) > m.dev.Capacity {
			return fmt.Errorf("qccd: trap %d over capacity: %d > %d",
				t, len(chain), m.dev.Capacity)
		}
		for i, q := range chain {
			if seen[q] {
				return fmt.Errorf("qccd: qubit %d in two traps", q)
			}
			seen[q] = true
			if m.trapOf[q] != t {
				return fmt.Errorf("qccd: qubit %d trapOf mismatch", q)
			}
			if m.pos[q] != i {
				return fmt.Errorf("qccd: qubit %d at chain index %d, pos %d", q, i, m.pos[q])
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

func TestSameTrapGateNeedsNoShuttle(t *testing.T) {
	dev := device.QCCD{NumQubits: 8, Capacity: 16}
	p := noise.Default()
	c := circuit.New(8)
	c.ApplyXX(math.Pi/4, 0, 3)
	r, err := RunChecked(context.Background(), c, dev, p)
	if err != nil {
		t.Fatal(err)
	}
	if r.Splits != 0 || r.Merges != 0 || r.Hops != 0 || r.EdgeSwaps != 0 {
		t.Errorf("unexpected shuttle ops: %+v", r)
	}
	want := 1 - p.TwoQubitError(p.GateTime(3), 0)
	if math.Abs(r.SuccessRate-want) > 1e-12 {
		t.Errorf("success = %.15f, want %.15f", r.SuccessRate, want)
	}
}

func TestCrossTrapGateShuttles(t *testing.T) {
	// Capacity 5 -> 4 usable per trap: qubits {0..3} trap 0, {4..7} trap 1.
	dev := device.QCCD{NumQubits: 8, Capacity: 5}
	p := noise.Default()
	c := circuit.New(8)
	c.ApplyXX(math.Pi/4, 0, 7)
	r, err := RunChecked(context.Background(), c, dev, p)
	if err != nil {
		t.Fatal(err)
	}
	if r.Splits != 1 || r.Merges != 1 {
		t.Errorf("splits/merges = %d/%d, want 1/1", r.Splits, r.Merges)
	}
	if r.Hops != 1 {
		t.Errorf("hops = %d, want 1", r.Hops)
	}
	if r.SuccessRate >= 1 || r.SuccessRate <= 0 {
		t.Errorf("success = %g", r.SuccessRate)
	}
}

func TestShuttledQubitStays(t *testing.T) {
	// Two gates across the same pair: the second should find them
	// co-resident and shuttle nothing.
	dev := device.QCCD{NumQubits: 8, Capacity: 5}
	c := circuit.New(8)
	c.ApplyXX(math.Pi/4, 0, 7)
	c.ApplyXX(math.Pi/4, 0, 7)
	r, err := RunChecked(context.Background(), c, dev, noise.Default())
	if err != nil {
		t.Fatal(err)
	}
	if r.Splits != 1 {
		t.Errorf("splits = %d, want 1 (second gate needs no shuttle)", r.Splits)
	}
	if r.TwoQubitGates != 2 {
		t.Errorf("TwoQubitGates = %d, want 2", r.TwoQubitGates)
	}
}

func TestHeatingAccumulatesPerTrap(t *testing.T) {
	// Gates in an unheated trap keep full fidelity while a heavily
	// shuttled trap degrades.
	dev := device.QCCD{NumQubits: 12, Capacity: 5}
	p := noise.Default()
	c := circuit.New(12)
	// Repeatedly ping-pong qubit 0 between traps 0 and 1 (heats both),
	// then compare a gate in trap 2 (cold) to one in trap 1 (hot).
	c.ApplyXX(math.Pi/4, 0, 5) // shuttles 0 into trap 1
	c.ApplyXX(math.Pi/4, 0, 1) // shuttles 0 back (or 1 over); heats more
	r, err := RunChecked(context.Background(), c, dev, p)
	if err != nil {
		t.Fatal(err)
	}
	if r.MeanTwoQubitFidelity >= 1-p.Epsilon {
		t.Errorf("heating had no effect: mean fid %g", r.MeanTwoQubitFidelity)
	}
}

func TestEdgeSwapsCounted(t *testing.T) {
	// Qubit 2 sits mid-chain in trap 0 (qubits 0..3); shuttling it right
	// requires one edge swap past qubit 3.
	dev := device.QCCD{NumQubits: 8, Capacity: 5}
	c := circuit.New(8)
	c.ApplyXX(math.Pi/4, 2, 7)
	r, err := RunChecked(context.Background(), c, dev, noise.Default())
	if err != nil {
		t.Fatal(err)
	}
	if r.EdgeSwaps != 1 {
		t.Errorf("EdgeSwaps = %d, want 1", r.EdgeSwaps)
	}
}

func TestRebalanceWhenDestinationFull(t *testing.T) {
	// Traps of capacity 5 start with 4 ions each. The first gate pulls
	// qubit 7 into trap 0 (now full); the later gates give qubit 8 a
	// strong affinity for trap 0's residents, so it must shuttle into the
	// full trap, forcing an eviction.
	dev := device.QCCD{NumQubits: 12, Capacity: 5}
	c := circuit.New(12)
	c.ApplyXX(math.Pi/4, 0, 7) // 7 -> trap 0 (3 affinity gates below)
	c.ApplyXX(math.Pi/4, 1, 7)
	c.ApplyXX(math.Pi/4, 2, 7) // trap 0 now 5/5 full
	c.ApplyXX(math.Pi/4, 1, 8) // 8 -> trap 0: eviction required
	c.ApplyXX(math.Pi/4, 2, 8)
	c.ApplyXX(math.Pi/4, 3, 8)
	r, err := RunChecked(context.Background(), c, dev, noise.Default())
	if err != nil {
		t.Fatal(err)
	}
	if r.Splits < 3 {
		t.Errorf("Splits = %d, want ≥ 3 (two journeys + one eviction)", r.Splits)
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	dev := device.QCCD{NumQubits: 4, Capacity: 5}
	wide := circuit.New(8)
	if _, err := Run(context.Background(), wide, dev, noise.Default()); err == nil {
		t.Error("wide circuit should fail")
	}
	ccx := circuit.New(4)
	ccx.ApplyCCX(0, 1, 2)
	if _, err := Run(context.Background(), ccx, dev, noise.Default()); err == nil {
		t.Error("arity-3 gate should fail")
	}
	bad := noise.Default()
	bad.Gamma = -1
	c := circuit.New(4)
	if _, err := Run(context.Background(), c, dev, bad); err == nil {
		t.Error("bad noise params should fail")
	}
	if _, err := Run(context.Background(), c, device.QCCD{NumQubits: 4, Capacity: 1}, noise.Default()); err == nil {
		t.Error("bad device should fail")
	}
}

func TestRunBestCapacityPicksBest(t *testing.T) {
	bm := workloads.QAOAN(24, 2, 7)
	nat := decompose.ToNative(bm.Circuit)
	best, err := RunBestCapacity(context.Background(), nat, 24, []int{5, 15, 25}, noise.Default())
	if err != nil {
		t.Fatal(err)
	}
	for _, capacity := range []int{5, 15, 25} {
		r, err := Run(context.Background(), nat, device.QCCD{NumQubits: 24, Capacity: capacity}, noise.Default())
		if err != nil {
			t.Fatal(err)
		}
		if r.LogSuccess > best.LogSuccess {
			t.Errorf("capacity %d (%g) beats reported best (%g)",
				capacity, r.LogSuccess, best.LogSuccess)
		}
	}
}

func TestRunBestCapacityDefaultSweep(t *testing.T) {
	bm := workloads.GHZ(20)
	nat := decompose.ToNative(bm.Circuit)
	best, err := RunBestCapacity(context.Background(), nat, 20, nil, noise.Default())
	if err != nil {
		t.Fatal(err)
	}
	if best.Capacity < 15 || best.Capacity > 35 {
		t.Errorf("best capacity %d outside the paper's sweep", best.Capacity)
	}
}

func TestPropertyStructuralInvariants(t *testing.T) {
	f := func(seed int64, capRaw uint8) bool {
		n := 16
		capacity := 3 + int(capRaw)%8
		bm := workloads.Random(n, 20, seed)
		nat := decompose.ToNative(bm.Circuit)
		r, err := RunChecked(context.Background(), nat, device.QCCD{NumQubits: n, Capacity: capacity}, noise.Default())
		if err != nil {
			return false
		}
		return r.SuccessRate >= 0 && r.SuccessRate <= 1 &&
			r.LogSuccess <= 0 && r.Splits == r.Merges
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestOneQubitGateCensus(t *testing.T) {
	dev := device.QCCD{NumQubits: 4, Capacity: 5}
	c := circuit.New(4)
	c.ApplyRX(0.5, 0)
	c.ApplyRZ(0.5, 1)
	r, err := Run(context.Background(), c, dev, noise.Default())
	if err != nil {
		t.Fatal(err)
	}
	if r.OneQubitGates != 2 || r.TwoQubitGates != 0 {
		t.Errorf("census = %d/%d", r.OneQubitGates, r.TwoQubitGates)
	}
	p := noise.Default()
	want := math.Pow(1-p.OneQubitError, 2)
	if math.Abs(r.SuccessRate-want) > 1e-12 {
		t.Errorf("success = %g, want %g", r.SuccessRate, want)
	}
}

// TestRunBestCapacityRejectsBeforeSweeping: the sweep's shared routing
// index is built once from the circuit, so a device narrower than the
// circuit must come back as the width error, not an index panic, and a
// cancelled context as ctx.Err().
func TestRunBestCapacityRejectsBeforeSweeping(t *testing.T) {
	nat := decompose.ToNative(workloads.QFTN(20).Circuit)
	_, err := RunBestCapacity(context.Background(), nat, 12, nil, noise.Default())
	if err == nil || err.Error() != "qccd: circuit width 20 exceeds device 12" {
		t.Errorf("narrow device: err = %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunBestCapacity(ctx, nat, 20, nil, noise.Default()); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled context: err = %v, want context.Canceled", err)
	}
}
