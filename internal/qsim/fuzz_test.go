package qsim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/circuit"
)

// allKinds is every gate kind ApplyGate accepts.
var allKinds = []circuit.Kind{
	circuit.I, circuit.X, circuit.Y, circuit.Z, circuit.H, circuit.S, circuit.Sdg,
	circuit.T, circuit.Tdg, circuit.RX, circuit.RY, circuit.RZ, circuit.CNOT,
	circuit.CZ, circuit.CP, circuit.SWAP, circuit.XX, circuit.CCX, circuit.Measure,
}

// specialAngles are the rotation angles where sin or cos is exactly ±0 or
// ±1, or where the matrix is ±I.
var specialAngles = []float64{0, math.Copysign(0, -1), math.Pi, -math.Pi, 2 * math.Pi, -2 * math.Pi, math.Pi / 2, -math.Pi / 2}

// sameAmplitudes reports the first amplitude where got and want differ, or
// -1. With exact, every component must match bit for bit; without it, a
// component that is zero in both may differ in sign (see kernels.go), and
// every other component must still match bit for bit.
func sameAmplitudes(got, want *State, exact bool) int {
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || (!exact && a == 0 && b == 0)
	}
	for i, a := range got.amp {
		b := want.amp[i]
		if !same(real(a), real(b)) || !same(imag(a), imag(b)) {
			return i
		}
	}
	return -1
}

// checkAgainstReference applies g with ApplyGate to got and with the
// skip-branch reference to want, then compares the two.
func checkAgainstReference(t *testing.T, got, want *State, g circuit.Gate, exact bool) {
	t.Helper()
	got.ApplyGate(g)
	refApplyGate(want, g)
	if i := sameAmplitudes(got, want, exact); i >= 0 {
		t.Fatalf("%v on %d qubits: amp[%d] = %v, reference %v", g, got.n, i, got.amp[i], want.amp[i])
	}
}

// randomMatrix2 and randomMatrix4 fill a matrix with Gaussian entries:
// ApplyMat2/ApplyMat4 must match the reference for any matrix, unitary or
// not.
func randomMatrix2(rng *rand.Rand) (m Matrix2) {
	for r := range m {
		for c := range m[r] {
			m[r][c] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
	}
	return m
}

func randomMatrix4(rng *rand.Rand) (m Matrix4) {
	for r := range m {
		for c := range m[r] {
			m[r][c] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
	}
	return m
}

// TestKernelsMatchReferenceExhaustive applies every gate kind on every
// ordered choice of distinct qubits of 1–4 qubit random states, at random
// and special angles, and holds each kernel to the reference bit for bit.
// From |0…0⟩, where amplitudes are exactly zero, only zero signs may differ.
func TestKernelsMatchReferenceExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 1; n <= 4; n++ {
		for _, k := range allKinds {
			angles := []float64{0}
			if k.Parameterized() {
				angles = append(slices.Clone(specialAngles), 4*math.Pi*rng.Float64()-2*math.Pi)
			}
			for _, qs := range orderedTuples(n, k.Arity()) {
				for _, theta := range angles {
					g := circuit.Gate{Kind: k, Qubits: qs, Theta: theta}
					st := NewRandomState(n, rng)
					checkAgainstReference(t, st, st.Clone(), g, true)
					zero := NewState(n)
					checkAgainstReference(t, zero, zero.Clone(), g, false)
				}
			}
			for _, qs := range orderedTuples(n, 1) {
				got := NewRandomState(n, rng)
				want := got.Clone()
				m := randomMatrix2(rng)
				got.ApplyMat2(m, qs[0])
				refApplyMat2(want, m, qs[0])
				if i := sameAmplitudes(got, want, true); i >= 0 {
					t.Fatalf("ApplyMat2 on qubit %d of %d: amp[%d] differs", qs[0], n, i)
				}
			}
			for _, qs := range orderedTuples(n, 2) {
				got := NewRandomState(n, rng)
				want := got.Clone()
				m := randomMatrix4(rng)
				got.ApplyMat4(m, qs[0], qs[1])
				refApplyMat4(want, m, qs[0], qs[1])
				if i := sameAmplitudes(got, want, true); i >= 0 {
					t.Fatalf("ApplyMat4 on qubits %v of %d: amp[%d] differs", qs, n, i)
				}
			}
		}
	}
}

// orderedTuples returns every ordered tuple of k distinct qubits below n.
func orderedTuples(n, k int) [][]int {
	if k == 0 {
		return [][]int{nil}
	}
	var out [][]int
	for _, rest := range orderedTuples(n, k-1) {
		for q := 0; q < n; q++ {
			dup := false
			for _, r := range rest {
				dup = dup || r == q
			}
			if !dup {
				out = append(out, append(append([]int(nil), rest...), q))
			}
		}
	}
	return out
}

// FuzzKernelsMatchReference decodes the input into a register of 1–10
// qubits and a gate sequence over every kind, applies it with the strided
// kernels and with the skip-branch reference, and requires the amplitudes
// to match bit for bit after every gate (up to the sign of exact zeros).
//
// Input layout: byte 0 picks the width and whether the register starts in
// a random state (every amplitude nonzero: exact bits) or in |0…0⟩ (zero
// amplitudes: only their signs may differ); bytes 1–8 seed the random
// state, angles and matrices; every following group of four bytes, up to
// 32 groups, is one gate: its kind, its angle, and its operands as a
// rotation of the qubit order.
func FuzzKernelsMatchReference(f *testing.F) {
	f.Add([]byte{9, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0, 1, 2, 10, 3, 4, 5, 16, 7, 8, 9})
	f.Add([]byte{0x82, 0, 0, 0, 0, 0, 0, 0, 1, 11, 1, 0, 0, 12, 2, 1, 0})
	for k := range allKinds {
		f.Add([]byte{byte(k%10) | 0x10, byte(k), 0, 0, 0, 0, 0, 0, 0, byte(k), 0, byte(k), 3, byte(k), 5, 2, 7})
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 9 {
			return
		}
		n := 1 + int(data[0]&0x0f)%10
		exact := data[0]&0x80 == 0
		var seed int64
		for _, b := range data[1:9] {
			seed = seed<<8 | int64(b)
		}
		rng := rand.New(rand.NewSource(seed))
		got := NewState(n)
		if exact {
			got = NewRandomState(n, rng)
		}
		want := got.Clone()

		body := data[9:]
		if len(body) > 4*32 {
			body = body[:4*32]
		}
		perm := make([]int, n)
		for ; len(body) >= 4; body = body[4:] {
			kb, tb, q0, step := int(body[0]), int(body[1]), int(body[2]), int(body[3])
			// Kinds past the gate list exercise ApplyMat2/ApplyMat4 directly.
			kind := kb % (len(allKinds) + 2)
			arity := 1
			if kind == len(allKinds)+1 {
				arity = 2
			} else if kind < len(allKinds) {
				arity = allKinds[kind].Arity()
			}
			if arity > n {
				continue
			}
			// Operands: q0, then every step-th qubit after it, mod n; a
			// step sharing a factor with n falls back to a random order.
			for i := range perm {
				perm[i] = (q0 + i*(1+step%n)) % n
			}
			if !distinct(perm[:arity]) {
				copy(perm, rng.Perm(n))
			}
			qs := perm[:arity]

			switch kind {
			case len(allKinds):
				m := randomMatrix2(rng)
				got.ApplyMat2(m, qs[0])
				refApplyMat2(want, m, qs[0])
			case len(allKinds) + 1:
				m := randomMatrix4(rng)
				got.ApplyMat4(m, qs[0], qs[1])
				refApplyMat4(want, m, qs[0], qs[1])
			default:
				k := allKinds[kind]
				theta := 0.0
				if k.Parameterized() {
					if tb < 64 {
						theta = specialAngles[tb%len(specialAngles)]
					} else {
						theta = 4*math.Pi*rng.Float64() - 2*math.Pi
					}
				}
				g := circuit.Gate{Kind: k, Qubits: append([]int(nil), qs...), Theta: theta}
				got.ApplyGate(g)
				refApplyGate(want, g)
			}
			if i := sameAmplitudes(got, want, exact); i >= 0 {
				t.Fatalf("kind #%d on qubits %v of %d: amp[%d] = %v, reference %v",
					kind, qs, n, i, got.amp[i], want.amp[i])
			}
		}
	})
}

// distinct reports whether qs holds no repeated qubit.
func distinct(qs []int) bool {
	for i := range qs {
		for j := i + 1; j < len(qs); j++ {
			if qs[i] == qs[j] {
				return false
			}
		}
	}
	return true
}

// TestGateValidation: every gate kind panics with a qsim: message on a
// qubit outside the register or a repeated operand, and applies cleanly on
// valid operands.
func TestGateValidation(t *testing.T) {
	bad := map[int][][]int{
		1: {{5}, {-1}, {3}},
		2: {{0, 5}, {5, 0}, {-1, 1}, {1, 1}, {3, 0}},
		3: {{0, 1, 5}, {5, 0, 1}, {0, -1, 2}, {1, 1, 2}, {0, 2, 2}, {2, 1, 2}},
	}
	for _, k := range allKinds {
		for _, qs := range bad[k.Arity()] {
			t.Run(fmt.Sprintf("%v%v", k, qs), func(t *testing.T) {
				defer func() {
					r := recover()
					msg, _ := r.(string)
					if !strings.HasPrefix(msg, "qsim: ") {
						t.Errorf("%v on %v: recovered %v, want a qsim: panic", k, qs, r)
					}
				}()
				NewState(3).ApplyGate(circuit.Gate{Kind: k, Qubits: qs, Theta: 0.3})
			})
		}
		NewState(3).ApplyGate(circuit.Gate{Kind: k, Qubits: []int{2, 0, 1}[:k.Arity()], Theta: 0.3})
	}
}
