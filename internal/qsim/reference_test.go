package qsim

import (
	"fmt"
	"math/cmplx"

	"repro/internal/circuit"
)

// The skip-branch kernels the strided ones replaced, kept unoptimised as the
// differential oracle for FuzzKernelsMatchReference: every loop visits all
// 2^n indices and skips those a gate does not start from, and every
// single-qubit gate goes through the full complex 2×2 product.

// refApplyMat2 applies a single-qubit unitary to qubit q in place.
func refApplyMat2(s *State, m Matrix2, q int) {
	if q < 0 || q >= s.n {
		panic(fmt.Sprintf("qsim: qubit %d out of range [0,%d)", q, s.n))
	}
	bit := 1 << uint(q)
	for i := 0; i < len(s.amp); i++ {
		if i&bit != 0 {
			continue
		}
		j := i | bit
		a0, a1 := s.amp[i], s.amp[j]
		s.amp[i] = m[0][0]*a0 + m[0][1]*a1
		s.amp[j] = m[1][0]*a0 + m[1][1]*a1
	}
}

// refApplyMat4 applies a two-qubit unitary to qubits (q0, q1) in place, where
// the matrix basis orders q0 as the low bit.
func refApplyMat4(s *State, m Matrix4, q0, q1 int) {
	if q0 == q1 {
		panic("qsim: two-qubit gate on identical qubits")
	}
	if q0 < 0 || q0 >= s.n || q1 < 0 || q1 >= s.n {
		panic(fmt.Sprintf("qsim: qubits (%d,%d) out of range [0,%d)", q0, q1, s.n))
	}
	b0 := 1 << uint(q0)
	b1 := 1 << uint(q1)
	mask := b0 | b1
	for i := 0; i < len(s.amp); i++ {
		if i&mask != 0 {
			continue
		}
		i00 := i
		i01 := i | b0
		i10 := i | b1
		i11 := i | mask
		a00, a01, a10, a11 := s.amp[i00], s.amp[i01], s.amp[i10], s.amp[i11]
		s.amp[i00] = m[0][0]*a00 + m[0][1]*a01 + m[0][2]*a10 + m[0][3]*a11
		s.amp[i01] = m[1][0]*a00 + m[1][1]*a01 + m[1][2]*a10 + m[1][3]*a11
		s.amp[i10] = m[2][0]*a00 + m[2][1]*a01 + m[2][2]*a10 + m[2][3]*a11
		s.amp[i11] = m[3][0]*a00 + m[3][1]*a01 + m[3][2]*a10 + m[3][3]*a11
	}
}

// refApplyGate applies one circuit gate. Measure markers are ignored (the
// simulator is used for unitary equivalence checks, not sampling).
func refApplyGate(s *State, g circuit.Gate) {
	switch g.Kind {
	case circuit.I:
	case circuit.X:
		refApplyMat2(s, MatX(), g.Qubits[0])
	case circuit.Y:
		refApplyMat2(s, MatY(), g.Qubits[0])
	case circuit.Z:
		refApplyMat2(s, MatZ(), g.Qubits[0])
	case circuit.H:
		refApplyMat2(s, MatH(), g.Qubits[0])
	case circuit.S:
		refApplyMat2(s, MatS(), g.Qubits[0])
	case circuit.Sdg:
		refApplyMat2(s, MatSdg(), g.Qubits[0])
	case circuit.T:
		refApplyMat2(s, MatT(), g.Qubits[0])
	case circuit.Tdg:
		refApplyMat2(s, MatTdg(), g.Qubits[0])
	case circuit.RX:
		refApplyMat2(s, MatRX(g.Theta), g.Qubits[0])
	case circuit.RY:
		refApplyMat2(s, MatRY(g.Theta), g.Qubits[0])
	case circuit.RZ:
		refApplyMat2(s, MatRZ(g.Theta), g.Qubits[0])
	case circuit.CNOT:
		refCNOT(s, g.Qubits[0], g.Qubits[1])
	case circuit.CZ:
		refCZ(s, g.Qubits[0], g.Qubits[1])
	case circuit.CP:
		refCP(s, g.Theta, g.Qubits[0], g.Qubits[1])
	case circuit.SWAP:
		refSWAP(s, g.Qubits[0], g.Qubits[1])
	case circuit.XX:
		refApplyMat4(s, MatXX(g.Theta), g.Qubits[0], g.Qubits[1])
	case circuit.CCX:
		refCCX(s, g.Qubits[0], g.Qubits[1], g.Qubits[2])
	case circuit.Measure:
		// no-op for unitary checks
	default:
		panic(fmt.Sprintf("qsim: unsupported gate kind %v", g.Kind))
	}
}

func refCNOT(s *State, ctl, tgt int) {
	cb := 1 << uint(ctl)
	tb := 1 << uint(tgt)
	for i := range s.amp {
		if i&cb != 0 && i&tb == 0 {
			j := i | tb
			s.amp[i], s.amp[j] = s.amp[j], s.amp[i]
		}
	}
}

func refCZ(s *State, a, b int) {
	ab := 1<<uint(a) | 1<<uint(b)
	for i := range s.amp {
		if i&ab == ab {
			s.amp[i] = -s.amp[i]
		}
	}
}

func refCP(s *State, theta float64, a, b int) {
	ab := 1<<uint(a) | 1<<uint(b)
	ph := cmplx.Exp(complex(0, theta))
	for i := range s.amp {
		if i&ab == ab {
			s.amp[i] *= ph
		}
	}
}

func refSWAP(s *State, a, b int) {
	ab0 := 1 << uint(a)
	ab1 := 1 << uint(b)
	for i := range s.amp {
		if i&ab0 != 0 && i&ab1 == 0 {
			j := i&^ab0 | ab1
			s.amp[i], s.amp[j] = s.amp[j], s.amp[i]
		}
	}
}

func refCCX(s *State, c0, c1, tgt int) {
	cb := 1<<uint(c0) | 1<<uint(c1)
	tb := 1 << uint(tgt)
	for i := range s.amp {
		if i&cb == cb && i&tb == 0 {
			j := i | tb
			s.amp[i], s.amp[j] = s.amp[j], s.amp[i]
		}
	}
}
