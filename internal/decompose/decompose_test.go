package decompose

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/circuit"
	"repro/internal/qsim"
)

// checkNativeEquivalent asserts ToNative(c) implements the same unitary as c
// and emits only native kinds.
func checkNativeEquivalent(t *testing.T, name string, c *circuit.Circuit) {
	t.Helper()
	nat := ToNative(c)
	for i, g := range nat.Gates() {
		if g.Kind != circuit.Measure && !g.Kind.Native() {
			t.Fatalf("%s: gate %d kind %v is not native", name, i, g.Kind)
		}
	}
	if !qsim.EquivalentUpToPhase(c, nat, 4, 12345) {
		t.Fatalf("%s: native decomposition is not unitarily equivalent", name)
	}
}

func TestSingleQubitDecompositions(t *testing.T) {
	kinds := []circuit.Kind{
		circuit.X, circuit.Y, circuit.Z, circuit.H,
		circuit.S, circuit.Sdg, circuit.T, circuit.Tdg,
	}
	for _, k := range kinds {
		c := circuit.New(1)
		c.MustAdd(k, 0, 0)
		checkNativeEquivalent(t, k.String(), c)
	}
}

func TestRotationsPassThrough(t *testing.T) {
	c := circuit.New(1)
	c.ApplyRX(0.3, 0)
	c.ApplyRY(-1.2, 0)
	c.ApplyRZ(2.5, 0)
	nat := ToNative(c)
	if nat.Len() != 3 {
		t.Fatalf("rotations should pass through unchanged, got %d gates", nat.Len())
	}
	checkNativeEquivalent(t, "rotations", c)
}

func TestIdentityDropped(t *testing.T) {
	c := circuit.New(1)
	c.MustAdd(circuit.I, 0, 0)
	if nat := ToNative(c); nat.Len() != 0 {
		t.Errorf("identity should be dropped, got %d gates", nat.Len())
	}
}

func TestCNOTNativeSequence(t *testing.T) {
	c := circuit.New(2)
	c.ApplyCNOT(0, 1)
	nat := ToNative(c)
	if nat.Len() != 5 {
		t.Fatalf("paper CNOT lowering has 5 gates, got %d", nat.Len())
	}
	if nat.CountKind(circuit.XX) != 1 {
		t.Fatalf("CNOT lowering should contain exactly one XX, got %d",
			nat.CountKind(circuit.XX))
	}
	checkNativeEquivalent(t, "cnot", c)
	// Also in the reverse direction.
	r := circuit.New(2)
	r.ApplyCNOT(1, 0)
	checkNativeEquivalent(t, "cnot-rev", r)
}

func TestCZDecomposition(t *testing.T) {
	c := circuit.New(2)
	c.ApplyCZ(0, 1)
	checkNativeEquivalent(t, "cz", c)
	if got := TwoQubitGateCount(c); got != 1 {
		t.Errorf("CZ two-qubit count = %d, want 1", got)
	}
}

func TestCPDecomposition(t *testing.T) {
	for _, th := range []float64{math.Pi, math.Pi / 2, math.Pi / 7, -1.3, 0.001} {
		c := circuit.New(2)
		c.ApplyCP(th, 0, 1)
		checkNativeEquivalent(t, "cp", c)
	}
	c := circuit.New(2)
	c.ApplyCP(math.Pi/3, 0, 1)
	if got := TwoQubitGateCount(c); got != 2 {
		t.Errorf("CP two-qubit count = %d, want 2 (Table II counting)", got)
	}
}

func TestSWAPDecomposition(t *testing.T) {
	c := circuit.New(2)
	c.ApplySWAP(0, 1)
	checkNativeEquivalent(t, "swap", c)
	if got := TwoQubitGateCount(c); got != 3 {
		t.Errorf("SWAP two-qubit count = %d, want 3", got)
	}
}

func TestCCXDecomposition(t *testing.T) {
	c := circuit.New(3)
	c.ApplyCCX(0, 1, 2)
	checkNativeEquivalent(t, "ccx", c)
	if got := TwoQubitGateCount(c); got != 6 {
		t.Errorf("CCX two-qubit count = %d, want 6", got)
	}
}

func TestMeasurePassesThrough(t *testing.T) {
	c := circuit.New(1)
	c.ApplyMeasure(0)
	nat := ToNative(c)
	if nat.Len() != 1 || nat.Gate(0).Kind != circuit.Measure {
		t.Errorf("measure should pass through, got %v", nat.Gates())
	}
}

func TestToCNOTContainsOnlyCNOTLevelGates(t *testing.T) {
	c := circuit.New(3)
	c.ApplyCCX(0, 1, 2)
	c.ApplySWAP(0, 2)
	c.ApplyCP(1.0, 1, 2)
	c.ApplyCZ(0, 1)
	low := ToCNOT(c)
	for i, g := range low.Gates() {
		if g.IsTwoQubit() && g.Kind != circuit.CNOT {
			t.Errorf("gate %d: two-qubit kind %v at CNOT level", i, g.Kind)
		}
	}
	if !qsim.EquivalentUpToPhase(c, low, 4, 99) {
		t.Error("ToCNOT changed the unitary")
	}
}

func TestPropertyRandomCircuitsDecomposeEquivalently(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4
		c := circuit.New(n)
		kinds := []circuit.Kind{
			circuit.X, circuit.Y, circuit.Z, circuit.H, circuit.S,
			circuit.T, circuit.CNOT, circuit.CZ, circuit.CP, circuit.SWAP,
			circuit.CCX, circuit.RX, circuit.RY, circuit.RZ, circuit.XX,
		}
		for i := 0; i < 12; i++ {
			k := kinds[rng.Intn(len(kinds))]
			qs := rng.Perm(n)[:k.Arity()]
			theta := 0.0
			if k.Parameterized() {
				theta = (rng.Float64() - 0.5) * 4 * math.Pi
			}
			g, err := circuit.NewGate(k, theta, qs...)
			if err != nil {
				return false
			}
			if err := c.Add(g); err != nil {
				return false
			}
		}
		nat := ToNative(c)
		for _, g := range nat.Gates() {
			if !g.Kind.Native() {
				return false
			}
		}
		return qsim.EquivalentUpToPhase(c, nat, 2, seed^0x5bd1e995)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPropertyNativeTwoQubitCountMatchesCNOTLevel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5
		c := circuit.New(n)
		kinds := []circuit.Kind{circuit.CNOT, circuit.CZ, circuit.CP, circuit.SWAP, circuit.CCX, circuit.H}
		for i := 0; i < 15; i++ {
			k := kinds[rng.Intn(len(kinds))]
			qs := rng.Perm(n)[:k.Arity()]
			theta := 0.0
			if k.Parameterized() {
				theta = rng.Float64()
			}
			g, _ := circuit.NewGate(k, theta, qs...)
			if err := c.Add(g); err != nil {
				return false
			}
		}
		// #XX in the native form == #CNOT at the CNOT level.
		return ToNative(c).CountKind(circuit.XX) == ToCNOT(c).CountKind(circuit.CNOT)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestReservedLengthIsExact: the per-kind lengths ToNative and ToCNOT
// reserve from are exactly the lengths the lowerings emit, for every gate
// kind.
func TestReservedLengthIsExact(t *testing.T) {
	for k := circuit.I; k <= circuit.Measure; k++ {
		c := circuit.New(3)
		qubits := []int{0, 1, 2}[:k.Arity()]
		theta := 0.0
		if k.Parameterized() {
			theta = 0.3
		}
		if err := c.Add(circuit.Gate{Kind: k, Qubits: qubits, Theta: theta}); err != nil {
			t.Fatal(err)
		}
		if got, want := ToNative(c).Len(), nativeLen(k); got != want {
			t.Errorf("%v: ToNative emits %d gates, nativeLen says %d", k, got, want)
		}
		if got, want := ToCNOT(c).Len(), cnotLen(k); got != want {
			t.Errorf("%v: ToCNOT emits %d gates, cnotLen says %d", k, got, want)
		}
	}
}
