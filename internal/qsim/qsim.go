// Package qsim is a dense statevector simulator for small registers
// (practically up to ~20 qubits). It supplies exact gate semantics so that
// compiler passes — native-gate decomposition, swap insertion, tape
// scheduling — can be machine-checked for unitary equivalence.
//
// Qubit 0 is the least-significant bit of the basis-state index.
package qsim

//lint:deterministic-package

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"

	"repro/internal/circuit"
)

// MaxQubits bounds the register width; 2^24 complex128 ≈ 256 MiB.
const MaxQubits = 24

// State is a statevector over n qubits.
type State struct {
	n   int
	amp []complex128
}

// NewState returns |0...0> over n qubits.
func NewState(n int) *State {
	if n <= 0 || n > MaxQubits {
		panic(fmt.Sprintf("qsim: qubit count %d out of range [1,%d]", n, MaxQubits))
	}
	s := &State{n: n, amp: make([]complex128, 1<<uint(n))}
	s.amp[0] = 1
	return s
}

// NewRandomState returns a Haar-ish random normalized state using the given
// source. (Gaussian components then normalize — exactly Haar for our purposes
// of distinguishing unitaries.)
func NewRandomState(n int, rng *rand.Rand) *State {
	if n <= 0 || n > MaxQubits {
		panic(fmt.Sprintf("qsim: qubit count %d out of range [1,%d]", n, MaxQubits))
	}
	s := &State{n: n, amp: make([]complex128, 1<<uint(n))}
	var norm float64
	for i := range s.amp {
		re, im := rng.NormFloat64(), rng.NormFloat64()
		s.amp[i] = complex(re, im)
		norm += re*re + im*im
	}
	scale := complex(1/math.Sqrt(norm), 0)
	for i := range s.amp {
		s.amp[i] *= scale
	}
	return s
}

// Reset returns the state to |0...0> in place, reusing the amplitude
// buffer. Monte-Carlo shot loops reset one per-worker state instead of
// allocating a fresh 2^n vector per shot.
func (s *State) Reset() {
	clear(s.amp)
	s.amp[0] = 1
}

// NumQubits returns the register width.
func (s *State) NumQubits() int { return s.n }

// Amplitudes returns the raw amplitude slice. Callers must not mutate it.
func (s *State) Amplitudes() []complex128 { return s.amp }

// SetAmplitudes overwrites the state with a copy of amp, a snapshot of
// another state of the same width taken from its Amplitudes.
func (s *State) SetAmplitudes(amp []complex128) {
	if len(amp) != len(s.amp) {
		panic(fmt.Sprintf("qsim: %d amplitudes for a %d-qubit state", len(amp), s.n))
	}
	copy(s.amp, amp)
}

// Clone deep-copies the state.
func (s *State) Clone() *State {
	out := &State{n: s.n, amp: make([]complex128, len(s.amp))}
	copy(out.amp, s.amp)
	return out
}

// Norm returns the 2-norm of the state (should be 1 up to rounding).
func (s *State) Norm() float64 {
	var sum float64
	for _, a := range s.amp {
		sum += real(a)*real(a) + imag(a)*imag(a)
	}
	return math.Sqrt(sum)
}

// Probability returns |amp[basis]|^2.
func (s *State) Probability(basis int) float64 {
	a := s.amp[basis]
	return real(a)*real(a) + imag(a)*imag(a)
}

// Matrix2 is a single-qubit unitary in row-major order.
type Matrix2 [2][2]complex128

// Matrix4 is a two-qubit unitary in row-major order over basis
// |q1 q0> = |00>,|01>,|10>,|11> where q0 is the first gate operand.
type Matrix4 [4][4]complex128

// Gate matrices for every circuit.Kind.

// MatX is the Pauli-X matrix.
func MatX() Matrix2 { return Matrix2{{0, 1}, {1, 0}} }

// MatY is the Pauli-Y matrix.
func MatY() Matrix2 { return Matrix2{{0, -1i}, {1i, 0}} }

// MatZ is the Pauli-Z matrix.
func MatZ() Matrix2 { return Matrix2{{1, 0}, {0, -1}} }

// MatH is the Hadamard matrix.
func MatH() Matrix2 {
	h := complex(1/math.Sqrt2, 0)
	return Matrix2{{h, h}, {h, -h}}
}

// MatS is the phase gate diag(1, i).
func MatS() Matrix2 { return Matrix2{{1, 0}, {0, 1i}} }

// MatSdg is the inverse phase gate diag(1, -i).
func MatSdg() Matrix2 { return Matrix2{{1, 0}, {0, -1i}} }

// MatT is diag(1, e^{iπ/4}).
func MatT() Matrix2 { return Matrix2{{1, 0}, {0, cmplx.Exp(1i * math.Pi / 4)}} }

// MatTdg is diag(1, e^{-iπ/4}).
func MatTdg() Matrix2 { return Matrix2{{1, 0}, {0, cmplx.Exp(-1i * math.Pi / 4)}} }

// MatRX is exp(-iθX/2).
func MatRX(theta float64) Matrix2 {
	c := complex(math.Cos(theta/2), 0)
	s := complex(0, -math.Sin(theta/2))
	return Matrix2{{c, s}, {s, c}}
}

// MatRY is exp(-iθY/2).
func MatRY(theta float64) Matrix2 {
	c := complex(math.Cos(theta/2), 0)
	s := complex(math.Sin(theta/2), 0)
	return Matrix2{{c, -s}, {s, c}}
}

// MatRZ is exp(-iθZ/2) = diag(e^{-iθ/2}, e^{iθ/2}).
func MatRZ(theta float64) Matrix2 {
	return Matrix2{
		{cmplx.Exp(complex(0, -theta/2)), 0},
		{0, cmplx.Exp(complex(0, theta/2))},
	}
}

// MatXX is the Mølmer-Sørensen interaction XX(θ) = exp(−iθ X⊗X). Under this
// sign convention the paper's five-gate sequence
// Ry(π/2)c; XX(π/4); Rx(−π/2)c; Rx(−π/2)t; Ry(−π/2)c equals CNOT up to
// global phase (verified numerically in internal/decompose tests).
func MatXX(theta float64) Matrix4 {
	c := complex(math.Cos(theta), 0)
	s := complex(0, -math.Sin(theta))
	return Matrix4{
		{c, 0, 0, s},
		{0, c, s, 0},
		{0, s, c, 0},
		{s, 0, 0, c},
	}
}

// Run applies every gate of the circuit in order. The circuit width must not
// exceed the state width.
func (s *State) Run(c *circuit.Circuit) {
	if c.NumQubits() > s.n {
		panic(fmt.Sprintf("qsim: circuit width %d exceeds state width %d", c.NumQubits(), s.n))
	}
	for _, g := range c.Gates() {
		s.ApplyGate(g)
	}
}

// RunPermuted applies every gate after relabeling each gate qubit q to
// perm[q]. Used to check mapped circuits against their logical originals.
func (s *State) RunPermuted(c *circuit.Circuit, perm []int) {
	// Scratch for the relabeled operands, reused across gates: ApplyGate
	// reads Qubits during dispatch and never retains the slice. Gate arity
	// is at most 3 (CCX).
	var buf [3]int
	for _, g := range c.Gates() {
		qs := buf[:len(g.Qubits)]
		for i, q := range g.Qubits {
			qs[i] = perm[q]
		}
		s.ApplyGate(circuit.Gate{Kind: g.Kind, Qubits: qs, Theta: g.Theta})
	}
}

// FidelityWith returns |<s|t>|^2, insensitive to global phase.
func (s *State) FidelityWith(t *State) float64 {
	if len(s.amp) != len(t.amp) {
		panic("qsim: fidelity between states of different width")
	}
	var dot complex128
	for i := range s.amp {
		dot += cmplx.Conj(s.amp[i]) * t.amp[i]
	}
	return real(dot)*real(dot) + imag(dot)*imag(dot)
}

// EquivalentUpToPhase reports whether two circuits implement the same unitary
// up to global phase, tested on trials random states with the given seed.
// Both circuits must have the same register width.
func EquivalentUpToPhase(a, b *circuit.Circuit, trials int, seed int64) bool {
	if a.NumQubits() != b.NumQubits() {
		return false
	}
	rng := rand.New(rand.NewSource(seed))
	// Each trial needs an independent random input and two private copies
	// to evolve; this is a verification helper, not on the shot path.
	for t := 0; t < trials; t++ {
		in := NewRandomState(a.NumQubits(), rng) //lint:allochot-exempt every trial requires a fresh independent random state
		sa := in.Clone()                         //lint:allochot-exempt each circuit evolves its own copy of the trial state
		sb := in.Clone()                         //lint:allochot-exempt each circuit evolves its own copy of the trial state
		sa.Run(a)
		sb.Run(b)
		if f := sa.FidelityWith(sb); f < 1-1e-9 {
			return false
		}
	}
	return true
}

// EquivalentUnderPermutation reports whether running b with qubit relabeling
// perm matches a up to global phase, tested on random states. This verifies
// swap-inserted circuits: after the inserted SWAPs, physical slot perm[q]
// holds logical qubit q's state only if trailing permutation is accounted
// for; callers append corrective SWAPs or compare against the output mapping.
func EquivalentUnderPermutation(a, b *circuit.Circuit, perm []int, trials int, seed int64) bool {
	n := a.NumQubits()
	if b.NumQubits() < n {
		return false
	}
	rng := rand.New(rand.NewSource(seed))
	// Same shape as EquivalentUpToPhase: per-trial allocation is the point.
	for t := 0; t < trials; t++ {
		in := NewRandomState(b.NumQubits(), rng) //lint:allochot-exempt every trial requires a fresh independent random state
		sa := in.Clone()                         //lint:allochot-exempt each circuit evolves its own copy of the trial state
		sb := in.Clone()                         //lint:allochot-exempt each circuit evolves its own copy of the trial state
		sa.RunPermuted(a, perm)
		sb.Run(b)
		if f := sa.FidelityWith(sb); f < 1-1e-9 {
			return false
		}
	}
	return true
}

// Sample draws one computational-basis outcome from the state's Born
// distribution using the given source. The state is not collapsed.
func (s *State) Sample(rng *rand.Rand) int {
	r := rng.Float64()
	acc := 0.0
	for i, a := range s.amp {
		acc += real(a)*real(a) + imag(a)*imag(a)
		if r < acc {
			return i
		}
	}
	// Rounding left r just above the total mass; return the last state.
	return len(s.amp) - 1
}

// SampleCounts draws shots outcomes and returns a histogram keyed by basis
// index. Deterministic for a given seed.
func (s *State) SampleCounts(shots int, seed int64) map[int]int {
	if shots < 0 {
		panic(fmt.Sprintf("qsim: negative shot count %d", shots))
	}
	rng := rand.New(rand.NewSource(seed))
	counts := make(map[int]int)
	for i := 0; i < shots; i++ {
		counts[s.Sample(rng)]++
	}
	return counts
}

// Expectation returns the expected value of a classical function f over the
// Born distribution: Σ_x |amp[x]|² f(x). Useful for variational objectives
// such as MaxCut cut sizes.
func (s *State) Expectation(f func(basis int) float64) float64 {
	var sum float64
	for i, a := range s.amp {
		p := real(a)*real(a) + imag(a)*imag(a)
		if p > 0 {
			sum += p * f(i)
		}
	}
	return sum
}
