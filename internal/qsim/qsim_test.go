package qsim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/circuit"
)

const eps = 1e-10

func TestNewStateIsZeroKet(t *testing.T) {
	s := NewState(3)
	if s.Probability(0) != 1 {
		t.Fatalf("P(|000>) = %g, want 1", s.Probability(0))
	}
	if math.Abs(s.Norm()-1) > eps {
		t.Fatalf("norm = %g, want 1", s.Norm())
	}
}

func TestNewStatePanicsOutOfRange(t *testing.T) {
	for _, n := range []int{0, -1, MaxQubits + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewState(%d) should panic", n)
				}
			}()
			NewState(n)
		}()
	}
}

func TestXFlipsQubit(t *testing.T) {
	s := NewState(2)
	s.ApplyGate(mustGate(t, circuit.X, 0, 1))
	if p := s.Probability(0b10); math.Abs(p-1) > eps {
		t.Errorf("P(|10>) = %g, want 1", p)
	}
}

func TestHCreatesSuperposition(t *testing.T) {
	s := NewState(1)
	s.ApplyGate(mustGate(t, circuit.H, 0, 0))
	if p0, p1 := s.Probability(0), s.Probability(1); math.Abs(p0-0.5) > eps || math.Abs(p1-0.5) > eps {
		t.Errorf("probabilities = %g, %g, want 0.5 each", p0, p1)
	}
	s.ApplyGate(mustGate(t, circuit.H, 0, 0))
	if p0 := s.Probability(0); math.Abs(p0-1) > eps {
		t.Errorf("H^2 != I: P(0) = %g", p0)
	}
}

func TestCNOTTruthTable(t *testing.T) {
	// |10> -> |11> with control qubit 1 (high bit in our index order).
	s := NewState(2)
	s.ApplyGate(mustGate(t, circuit.X, 0, 1)) // set control
	s.ApplyGate(mustGate(t, circuit.CNOT, 0, 1, 0))
	if p := s.Probability(0b11); math.Abs(p-1) > eps {
		t.Errorf("CNOT|10> : P(|11>) = %g, want 1", p)
	}
	// Control clear: target untouched.
	s2 := NewState(2)
	s2.ApplyGate(mustGate(t, circuit.CNOT, 0, 1, 0))
	if p := s2.Probability(0); math.Abs(p-1) > eps {
		t.Errorf("CNOT|00> : P(|00>) = %g, want 1", p)
	}
}

func TestSWAPExchangesAmplitudes(t *testing.T) {
	s := NewState(2)
	s.ApplyGate(mustGate(t, circuit.X, 0, 0)) // |01>
	s.ApplyGate(mustGate(t, circuit.SWAP, 0, 0, 1))
	if p := s.Probability(0b10); math.Abs(p-1) > eps {
		t.Errorf("SWAP|01> : P(|10>) = %g, want 1", p)
	}
}

func TestCCXTruthTable(t *testing.T) {
	s := NewState(3)
	s.ApplyGate(mustGate(t, circuit.X, 0, 0))
	s.ApplyGate(mustGate(t, circuit.X, 0, 1))
	s.ApplyGate(mustGate(t, circuit.CCX, 0, 0, 1, 2))
	if p := s.Probability(0b111); math.Abs(p-1) > eps {
		t.Errorf("CCX|011> : P(|111>) = %g, want 1", p)
	}
	s2 := NewState(3)
	s2.ApplyGate(mustGate(t, circuit.X, 0, 0))
	s2.ApplyGate(mustGate(t, circuit.CCX, 0, 0, 1, 2))
	if p := s2.Probability(0b001); math.Abs(p-1) > eps {
		t.Errorf("CCX|001> should be unchanged: P = %g", p)
	}
}

func TestCZAndCPPhases(t *testing.T) {
	// CZ == CP(π) on random states.
	a := circuit.New(2)
	a.ApplyCZ(0, 1)
	b := circuit.New(2)
	b.ApplyCP(math.Pi, 0, 1)
	if !EquivalentUpToPhase(a, b, 5, 42) {
		t.Error("CZ != CP(π)")
	}
}

func TestXXAgainstKnownAction(t *testing.T) {
	// XX(π/2) = exp(-iπ/2 XX) maps |00> -> -i|11>.
	s := NewState(2)
	s.ApplyGate(mustGate(t, circuit.XX, math.Pi/2, 0, 1))
	if p := s.Probability(0b11); math.Abs(p-1) > eps {
		t.Errorf("XX(π/2)|00> : P(|11>) = %g, want 1", p)
	}
	im := imag(s.Amplitudes()[0b11])
	if math.Abs(im+1) > eps {
		t.Errorf("XX(π/2)|00> amplitude imag = %g, want -1", im)
	}
}

func TestRotationPeriodicity(t *testing.T) {
	// RX(2π) = -I: fidelity with original state must be 1 (global phase).
	c1 := circuit.New(1)
	c1.ApplyRX(2*math.Pi, 0)
	c2 := circuit.New(1)
	if !EquivalentUpToPhase(c1, c2, 5, 7) {
		t.Error("RX(2π) should equal identity up to phase")
	}
}

func TestUnitarityPreservesNorm(t *testing.T) {
	f := func(seed int64, gRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4
		s := NewRandomState(n, rng)
		kinds := []circuit.Kind{
			circuit.X, circuit.Y, circuit.Z, circuit.H, circuit.S, circuit.Sdg,
			circuit.T, circuit.Tdg, circuit.RX, circuit.RY, circuit.RZ,
			circuit.CNOT, circuit.CZ, circuit.CP, circuit.SWAP, circuit.XX,
			circuit.CCX,
		}
		for i := 0; i < int(gRaw)%20; i++ {
			k := kinds[rng.Intn(len(kinds))]
			qs := rng.Perm(n)[:k.Arity()]
			theta := 0.0
			if k.Parameterized() {
				theta = rng.Float64() * 2 * math.Pi
			}
			g, err := circuit.NewGate(k, theta, qs...)
			if err != nil {
				return false
			}
			s.ApplyGate(g)
		}
		return math.Abs(s.Norm()-1) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestFidelityBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := NewRandomState(5, rng)
	b := NewRandomState(5, rng)
	f := a.FidelityWith(b)
	if f < 0 || f > 1+eps {
		t.Errorf("fidelity %g out of [0,1]", f)
	}
	if self := a.FidelityWith(a); math.Abs(self-1) > eps {
		t.Errorf("self fidelity = %g, want 1", self)
	}
}

func TestEquivalentUpToPhaseDetectsDifference(t *testing.T) {
	a := circuit.New(2)
	a.ApplyCNOT(0, 1)
	b := circuit.New(2)
	b.ApplyCNOT(1, 0)
	if EquivalentUpToPhase(a, b, 5, 3) {
		t.Error("CNOT(0,1) and CNOT(1,0) reported equivalent")
	}
	c := circuit.New(3)
	if EquivalentUpToPhase(a, c, 1, 3) {
		t.Error("different widths reported equivalent")
	}
}

func TestRunPermuted(t *testing.T) {
	// X on logical 0 permuted to physical 2 flips bit 2.
	c := circuit.New(3)
	c.ApplyX(0)
	s := NewState(3)
	s.RunPermuted(c, []int{2, 0, 1})
	if p := s.Probability(0b100); math.Abs(p-1) > eps {
		t.Errorf("permuted X: P(|100>) = %g, want 1", p)
	}
}

func TestApplyMat4QubitOrderMatters(t *testing.T) {
	// CNOT as a Matrix4 with q0=target low bit: control=q1.
	cnot := Matrix4{
		{1, 0, 0, 0},
		{0, 1, 0, 0},
		{0, 0, 0, 1},
		{0, 0, 1, 0},
	}
	s := NewState(2)
	s.ApplyGate(mustGate(t, circuit.X, 0, 1))
	s.ApplyMat4(cnot, 0, 1) // q0 = 0 (target), q1 = 1 (control)
	if p := s.Probability(0b11); math.Abs(p-1) > eps {
		t.Errorf("Matrix4 CNOT: P(|11>) = %g, want 1", p)
	}
}

func TestApplyMat4PanicsOnSameQubit(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("ApplyMat4 on identical qubits should panic")
		}
	}()
	NewState(2).ApplyMat4(Matrix4{}, 1, 1)
}

func TestRunPanicsOnWidthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Run with wider circuit should panic")
		}
	}()
	c := circuit.New(3)
	NewState(2).Run(c)
}

func mustGate(t *testing.T, k circuit.Kind, theta float64, qs ...int) circuit.Gate {
	t.Helper()
	g, err := circuit.NewGate(k, theta, qs...)
	if err != nil {
		t.Fatalf("NewGate(%v): %v", k, err)
	}
	return g
}

func TestSampleMatchesDistribution(t *testing.T) {
	// H|0>: ~50/50 over 4000 shots.
	s := NewState(1)
	s.ApplyGate(mustGate(t, circuit.H, 0, 0))
	counts := s.SampleCounts(4000, 42)
	if counts[0]+counts[1] != 4000 {
		t.Fatalf("lost shots: %v", counts)
	}
	if counts[0] < 1800 || counts[0] > 2200 {
		t.Errorf("P(0) samples = %d/4000, want ≈2000", counts[0])
	}
}

func TestSampleDeterministicBasisState(t *testing.T) {
	s := NewState(3)
	s.ApplyGate(mustGate(t, circuit.X, 0, 1))
	counts := s.SampleCounts(100, 7)
	if counts[0b010] != 100 {
		t.Errorf("basis state sampling: %v", counts)
	}
}

func TestSampleCountsPanicsOnNegativeShots(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative shots should panic")
		}
	}()
	NewState(1).SampleCounts(-1, 0)
}

func TestExpectation(t *testing.T) {
	// GHZ over 2 qubits: E[popcount] = 0.5*0 + 0.5*2 = 1.
	s := NewState(2)
	s.ApplyGate(mustGate(t, circuit.H, 0, 0))
	s.ApplyGate(mustGate(t, circuit.CNOT, 0, 0, 1))
	got := s.Expectation(func(x int) float64 {
		n := 0
		for ; x != 0; x &= x - 1 {
			n++
		}
		return float64(n)
	})
	if math.Abs(got-1) > 1e-12 {
		t.Errorf("E[popcount] = %g, want 1", got)
	}
}

func TestResetRestoresZeroKet(t *testing.T) {
	s := NewState(3)
	s.ApplyGate(circuit.Gate{Kind: circuit.H, Qubits: []int{0}})
	s.ApplyGate(circuit.Gate{Kind: circuit.CNOT, Qubits: []int{0, 1}})
	s.Reset()
	fresh := NewState(3)
	for i := range s.Amplitudes() {
		if s.Amplitudes()[i] != fresh.Amplitudes()[i] {
			t.Fatalf("amp[%d] = %v after Reset, want %v", i, s.Amplitudes()[i], fresh.Amplitudes()[i])
		}
	}
	if math.Abs(s.Norm()-1) > 1e-12 {
		t.Errorf("norm after Reset = %g", s.Norm())
	}
}

func TestSetAmplitudesCopiesSnapshot(t *testing.T) {
	src := NewRandomState(3, rand.New(rand.NewSource(1)))
	snap := append([]complex128(nil), src.Amplitudes()...)
	s := NewState(3)
	s.SetAmplitudes(snap)
	snap[0] = 42 // the state must not alias the snapshot
	for i, a := range s.Amplitudes() {
		if a != src.Amplitudes()[i] {
			t.Fatalf("amp[%d] = %v, want %v", i, a, src.Amplitudes()[i])
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("SetAmplitudes with a 2-qubit snapshot on a 3-qubit state should panic")
		}
	}()
	s.SetAmplitudes(NewState(2).Amplitudes())
}
