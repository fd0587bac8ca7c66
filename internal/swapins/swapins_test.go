package swapins

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/mapping"
	"repro/internal/qsim"
	"repro/internal/workloads"
)

// correctToInitial appends SWAPs to the physical circuit until the final
// mapping equals the initial one, so unitary equivalence can be checked
// against the logical circuit under the initial placement alone.
func correctToInitial(t *testing.T, r *Result) *circuit.Circuit {
	t.Helper()
	out := r.Physical.Clone()
	fin := r.FinalMapping.Clone()
	init := r.InitialMapping
	for p := 0; p < fin.Len(); p++ {
		want := init.Logical(p)
		if fin.Logical(p) == want {
			continue
		}
		p2 := fin.Phys(want)
		out.MustAdd(circuit.SWAP, 0, p, p2)
		fin.SwapPhysical(p, p2)
	}
	for p := 0; p < fin.Len(); p++ {
		if fin.Logical(p) != init.Logical(p) {
			t.Fatal("correction failed to restore mapping")
		}
	}
	return out
}

// checkResultInvariants asserts every emitted two-qubit gate is executable
// and every SWAP respects MaxSwapLen.
func checkResultInvariants(t *testing.T, r *Result, dev device.TILT, maxSwapLen int) {
	t.Helper()
	swaps := 0
	for i, g := range r.Physical.Gates() {
		if !g.IsTwoQubit() {
			continue
		}
		d := g.Distance()
		if d > dev.MaxGateDistance() {
			t.Fatalf("gate %d (%s) distance %d exceeds head limit %d",
				i, g, d, dev.MaxGateDistance())
		}
		if g.Kind == circuit.SWAP {
			swaps++
			if d > maxSwapLen {
				t.Fatalf("SWAP %d span %d exceeds MaxSwapLen %d", i, d, maxSwapLen)
			}
		}
	}
	if swaps != r.SwapCount {
		t.Fatalf("SwapCount = %d but circuit has %d SWAPs", r.SwapCount, swaps)
	}
	if r.OpposingSwaps < 0 || r.OpposingSwaps > r.SwapCount {
		t.Fatalf("OpposingSwaps %d outside [0,%d]", r.OpposingSwaps, r.SwapCount)
	}
	if err := r.FinalMapping.Validate(); err != nil {
		t.Fatalf("final mapping invalid: %v", err)
	}
}

func inserters() []Inserter {
	return []Inserter{LinQ{}, Stochastic{Trials: 8, Seed: 11}}
}

func TestExecutableGatePassesThrough(t *testing.T) {
	dev := device.TILT{NumIons: 8, HeadSize: 4}
	c := circuit.New(8)
	c.ApplyCNOT(0, 3) // distance 3 = L−1: executable
	for _, ins := range inserters() {
		r, err := ins.Insert(context.Background(), c, mapping.Identity(8), dev, Options{})
		if err != nil {
			t.Fatalf("%s: %v", ins.Name(), err)
		}
		if r.SwapCount != 0 {
			t.Errorf("%s: inserted %d swaps for an executable gate", ins.Name(), r.SwapCount)
		}
		if r.Physical.Len() != 1 {
			t.Errorf("%s: physical has %d gates, want 1", ins.Name(), r.Physical.Len())
		}
	}
}

func TestSingleLongGateGetsResolved(t *testing.T) {
	dev := device.TILT{NumIons: 10, HeadSize: 4}
	c := circuit.New(10)
	c.ApplyCNOT(0, 9) // distance 9, head allows 3
	for _, ins := range inserters() {
		r, err := ins.Insert(context.Background(), c, mapping.Identity(10), dev, Options{})
		if err != nil {
			t.Fatalf("%s: %v", ins.Name(), err)
		}
		if r.SwapCount < 2 {
			t.Errorf("%s: %d swaps, want ≥ 2 (distance 9 → ≤3 needs ≥2 hops)",
				ins.Name(), r.SwapCount)
		}
		checkResultInvariants(t, r, dev, dev.MaxGateDistance())
		corrected := correctToInitial(t, r)
		if !qsim.EquivalentUnderPermutation(c, corrected, r.InitialMapping.LogicalToPhysical(), 3, 5) {
			t.Errorf("%s: physical circuit is not unitarily equivalent", ins.Name())
		}
	}
}

func TestLinQHonorsMaxSwapLen(t *testing.T) {
	dev := device.TILT{NumIons: 16, HeadSize: 8}
	c := circuit.New(16)
	c.ApplyCNOT(0, 15)
	c.ApplyCNOT(2, 14)
	for _, maxLen := range []int{2, 4, 7} {
		r, err := (LinQ{}).Insert(context.Background(), c, mapping.Identity(16), dev, Options{MaxSwapLen: maxLen})
		if err != nil {
			t.Fatalf("maxLen=%d: %v", maxLen, err)
		}
		checkResultInvariants(t, r, dev, maxLen)
	}
}

func TestOptionsValidation(t *testing.T) {
	dev := device.TILT{NumIons: 8, HeadSize: 4}
	c := circuit.New(8)
	c.ApplyCNOT(0, 7)
	m := mapping.Identity(8)
	if _, err := (LinQ{}).Insert(context.Background(), c, m, dev, Options{MaxSwapLen: 99}); err == nil {
		t.Error("MaxSwapLen above head limit should fail")
	}
	if _, err := (LinQ{}).Insert(context.Background(), c, m, dev, Options{Alpha: 1.5}); err == nil {
		t.Error("Alpha outside (0,1) should fail")
	}
	if _, err := (LinQ{}).Insert(context.Background(), c, m, dev, Options{Alpha: math.NaN()}); err == nil {
		t.Error("NaN Alpha should fail")
	}
	if _, err := (LinQ{}).Insert(context.Background(), c, m, dev, Options{Lookahead: -1}); err == nil {
		t.Error("negative lookahead should fail")
	}
}

func TestInputValidation(t *testing.T) {
	dev := device.TILT{NumIons: 4, HeadSize: 2}
	wide := circuit.New(8)
	wide.ApplyCNOT(0, 7)
	if _, err := (LinQ{}).Insert(context.Background(), wide, mapping.Identity(8), dev, Options{}); err == nil {
		t.Error("circuit wider than chain should fail")
	}
	c := circuit.New(4)
	c.ApplyCNOT(0, 3)
	if _, err := (LinQ{}).Insert(context.Background(), c, mapping.Identity(8), dev, Options{}); err == nil {
		t.Error("mapping size mismatch should fail")
	}
	ccx := circuit.New(4)
	ccx.ApplyCCX(0, 1, 2)
	if _, err := (LinQ{}).Insert(context.Background(), ccx, mapping.Identity(4), dev, Options{}); err == nil {
		t.Error("3-qubit gate should be rejected (decompose first)")
	}
}

func TestOpposingSwapDetected(t *testing.T) {
	// Fig. 2(c): gate A on (q0,q9) wants q0 moving right; gate B on (q5,q1)
	// wants q5 moving left. Swapping slots 0 and 5 advances both gates at
	// once — the Eq. 1 lookahead should discover it and the classifier
	// should label it opposing.
	dev := device.TILT{NumIons: 10, HeadSize: 8}
	c := circuit.New(10)
	c.ApplyCNOT(0, 9)
	c.ApplyCNOT(5, 1)
	r, err := (LinQ{}).Insert(context.Background(), c, mapping.Identity(10), dev, Options{Alpha: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if r.SwapCount != 1 {
		t.Fatalf("expected exactly one swap, got %d", r.SwapCount)
	}
	if r.OpposingSwaps != 1 {
		t.Errorf("expected the single swap to be opposing, got %d", r.OpposingSwaps)
	}
	if got := r.OpposingRatio(); got != 1 {
		t.Errorf("OpposingRatio = %g, want 1", got)
	}
}

func TestOpposingRatioZeroWithoutSwaps(t *testing.T) {
	r := &Result{}
	if r.OpposingRatio() != 0 {
		t.Error("empty result should have zero opposing ratio")
	}
}

func TestLinQBeatsStochasticOnLongRangeTraffic(t *testing.T) {
	// A QFT-like all-to-all workload on a small device: the lookahead
	// heuristic should need no more swaps than the baseline (Fig. 6b).
	bm := workloads.QFTN(12)
	dev := device.TILT{NumIons: 12, HeadSize: 4}
	// Use the CNOT level (arity ≤ 2).
	c := lowered(bm.Circuit)
	m0 := mapping.Identity(12)
	lr, err := (LinQ{}).Insert(context.Background(), c, m0, dev, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sr, err := (Stochastic{Trials: 8, Seed: 3}).Insert(context.Background(), c, m0, dev, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if lr.SwapCount > sr.SwapCount {
		t.Errorf("LinQ used %d swaps, stochastic baseline %d; expected LinQ ≤ baseline",
			lr.SwapCount, sr.SwapCount)
	}
	checkResultInvariants(t, lr, dev, dev.MaxGateDistance())
	checkResultInvariants(t, sr, dev, dev.MaxGateDistance())
}

func TestPropertyBothInsertersPreserveSemantics(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(3)
		dev := device.TILT{NumIons: n, HeadSize: 3 + rng.Intn(2)}
		bm := workloads.Random(n, 6, seed)
		c := bm.Circuit
		m0, err := mapping.Initial(c, n, mapping.GreedyPlacement)
		if err != nil {
			return false
		}
		for _, ins := range inserters() {
			r, err := ins.Insert(context.Background(), c, m0, dev, Options{})
			if err != nil {
				return false
			}
			for _, g := range r.Physical.Gates() {
				if g.IsTwoQubit() && g.Distance() > dev.MaxGateDistance() {
					return false
				}
			}
			out := r.Physical.Clone()
			fin := r.FinalMapping.Clone()
			for p := 0; p < fin.Len(); p++ {
				want := r.InitialMapping.Logical(p)
				if fin.Logical(p) == want {
					continue
				}
				p2 := fin.Phys(want)
				out.MustAdd(circuit.SWAP, 0, p, p2)
				fin.SwapPhysical(p, p2)
			}
			if !qsim.EquivalentUnderPermutation(c, out, r.InitialMapping.LogicalToPhysical(), 2, seed^0xabcd) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestStochasticDeterministicForSeed(t *testing.T) {
	bm := workloads.Random(10, 15, 4)
	dev := device.TILT{NumIons: 10, HeadSize: 4}
	m0 := mapping.Identity(10)
	a, err := (Stochastic{Trials: 4, Seed: 9}).Insert(context.Background(), bm.Circuit, m0, dev, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := (Stochastic{Trials: 4, Seed: 9}).Insert(context.Background(), bm.Circuit, m0, dev, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.SwapCount != b.SwapCount || a.Physical.Len() != b.Physical.Len() {
		t.Error("stochastic inserter not deterministic for fixed seed")
	}
}

func TestMappingNotMutated(t *testing.T) {
	bm := workloads.Random(8, 10, 2)
	dev := device.TILT{NumIons: 8, HeadSize: 4}
	m0 := mapping.Identity(8)
	if _, err := (LinQ{}).Insert(context.Background(), bm.Circuit, m0, dev, Options{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if m0.Phys(i) != i {
			t.Fatal("input mapping was mutated")
		}
	}
}

// lowered re-expresses a circuit at arity ≤ 2 by dropping nothing: the QFT
// generator only emits H and CP, both arity ≤ 2, so this is the identity;
// kept as a seam in case workloads gain 3-qubit gates.
func lowered(c *circuit.Circuit) *circuit.Circuit { return c }

func TestInsertPreCancelledContextReturnsPromptly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	bm, err := workloads.ByName("QFT")
	if err != nil {
		t.Fatal(err)
	}
	dev := device.TILT{NumIons: bm.Qubits(), HeadSize: 16}
	m0 := mapping.Identity(dev.NumIons)
	for _, ins := range []Inserter{LinQ{}, Stochastic{Trials: 8, Seed: 1}} {
		start := time.Now()
		_, err := ins.Insert(ctx, bm.Circuit, m0, dev, Options{})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", ins.Name(), err)
		}
		if d := time.Since(start); d > time.Second {
			t.Errorf("%s: cancelled insert took %v, want prompt return", ins.Name(), d)
		}
	}
}

func TestInsertMidPassCancellationStopsInnerLoop(t *testing.T) {
	// Cancel after the first context poll: the inserter must abandon the
	// gate loop mid-pass rather than finishing the compile.
	bm, err := workloads.ByName("QFT")
	if err != nil {
		t.Fatal(err)
	}
	dev := device.TILT{NumIons: bm.Qubits(), HeadSize: 16}
	m0 := mapping.Identity(dev.NumIons)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(time.Millisecond)
		cancel()
	}()
	_, err = (LinQ{}).Insert(ctx, bm.Circuit, m0, dev, Options{})
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want nil or context.Canceled", err)
	}
}
