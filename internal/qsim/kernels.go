package qsim

import (
	"fmt"
	"math/cmplx"

	"repro/internal/circuit"
)

// The gate kernels visit the amplitudes a gate mixes in contiguous runs and
// never test and skip an index. For a gate on qubit q the 2^n amplitudes
// split into blocks of 2·2^q: the block's low half has bit q clear, its
// high half has it set, and amplitude k of one half pairs with amplitude k
// of the other. Two-qubit gates nest the same split over both bits.
//
// The structured kernels (RX, RY/H, RZ, the phase gates and XX) skip the
// products of their matrices' structural zeros. Such a product is ±0, and
// adding ±0 to a nonzero sum returns the sum unchanged, so every nonzero
// amplitude comes out with the same bits as the general ApplyMat2/ApplyMat4
// arithmetic: Go multiplies complex numbers as (ac−bd, ad+bc), and on amd64
// at the default GOAMD64 level it fuses no multiply-add. Only the sign of
// an amplitude that is exactly zero can differ, and a signed zero never
// changes a later nonzero amplitude, a probability or a fidelity.

// checkQubit panics unless q is a qubit of the state.
func (s *State) checkQubit(q int) {
	if q < 0 || q >= s.n {
		panic(fmt.Sprintf("qsim: qubit %d out of range [0,%d)", q, s.n))
	}
}

// checkPair panics unless a and b are two distinct qubits of the state.
func (s *State) checkPair(a, b int) {
	if a == b {
		panic(fmt.Sprintf("qsim: two-qubit gate on identical qubits (%d,%d)", a, b))
	}
	if a < 0 || a >= s.n || b < 0 || b >= s.n {
		panic(fmt.Sprintf("qsim: qubits (%d,%d) out of range [0,%d)", a, b, s.n))
	}
}

// ApplyMat2 applies a single-qubit unitary to qubit q in place.
func (s *State) ApplyMat2(m Matrix2, q int) {
	s.checkQubit(q)
	m00, m01, m10, m11 := m[0][0], m[0][1], m[1][0], m[1][1]
	bit := 1 << uint(q)
	for base := 0; base < len(s.amp); base += 2 * bit {
		lo := s.amp[base : base+bit]
		hi := s.amp[base+bit : base+2*bit][:len(lo)]
		for k, a0 := range lo {
			a1 := hi[k]
			lo[k] = m00*a0 + m01*a1
			hi[k] = m10*a0 + m11*a1
		}
	}
}

// ApplyMat4 applies a two-qubit unitary to qubits (q0, q1) in place, where
// the matrix basis orders q0 as the low bit.
func (s *State) ApplyMat4(m Matrix4, q0, q1 int) {
	s.checkPair(q0, q1)
	b0, b1 := 1<<uint(q0), 1<<uint(q1)
	lo, hi := min(b0, b1), max(b0, b1)
	for a := 0; a < len(s.amp); a += 2 * hi {
		for b := a; b < a+hi; b += 2 * lo {
			x00 := s.amp[b : b+lo]
			x01 := s.amp[b+b0 : b+b0+lo][:len(x00)]
			x10 := s.amp[b+b1 : b+b1+lo][:len(x00)]
			x11 := s.amp[b+b0+b1 : b+b0+b1+lo][:len(x00)]
			for k, a00 := range x00 {
				a01, a10, a11 := x01[k], x10[k], x11[k]
				x00[k] = m[0][0]*a00 + m[0][1]*a01 + m[0][2]*a10 + m[0][3]*a11
				x01[k] = m[1][0]*a00 + m[1][1]*a01 + m[1][2]*a10 + m[1][3]*a11
				x10[k] = m[2][0]*a00 + m[2][1]*a01 + m[2][2]*a10 + m[2][3]*a11
				x11[k] = m[3][0]*a00 + m[3][1]*a01 + m[3][2]*a10 + m[3][3]*a11
			}
		}
	}
}

// ApplyGate applies one circuit gate. Measure markers are ignored (the
// simulator is used for unitary equivalence checks, not sampling).
func (s *State) ApplyGate(g circuit.Gate) {
	switch g.Kind {
	case circuit.I:
		s.checkQubit(g.Qubits[0])
	case circuit.X:
		s.applyX(g.Qubits[0])
	case circuit.Y:
		s.ApplyMat2(MatY(), g.Qubits[0])
	case circuit.Z:
		s.applyPhase(MatZ()[1][1], g.Qubits[0])
	case circuit.H:
		s.applyReal(MatH(), g.Qubits[0])
	case circuit.S:
		s.applyPhase(MatS()[1][1], g.Qubits[0])
	case circuit.Sdg:
		s.applyPhase(MatSdg()[1][1], g.Qubits[0])
	case circuit.T:
		s.applyPhase(MatT()[1][1], g.Qubits[0])
	case circuit.Tdg:
		s.applyPhase(MatTdg()[1][1], g.Qubits[0])
	case circuit.RX:
		m := MatRX(g.Theta)
		s.applyRX(real(m[0][0]), imag(m[0][1]), g.Qubits[0])
	case circuit.RY:
		s.applyReal(MatRY(g.Theta), g.Qubits[0])
	case circuit.RZ:
		m := MatRZ(g.Theta)
		s.applyDiag(m[0][0], m[1][1], g.Qubits[0])
	case circuit.CNOT:
		s.applyCNOT(g.Qubits[0], g.Qubits[1])
	case circuit.CZ:
		s.applyCPhase(-1, g.Qubits[0], g.Qubits[1])
	case circuit.CP:
		s.applyCPhase(cmplx.Exp(complex(0, g.Theta)), g.Qubits[0], g.Qubits[1])
	case circuit.SWAP:
		s.applySWAP(g.Qubits[0], g.Qubits[1])
	case circuit.XX:
		m := MatXX(g.Theta)
		s.applyXX(real(m[0][0]), imag(m[0][3]), g.Qubits[0], g.Qubits[1])
	case circuit.CCX:
		s.applyCCX(g.Qubits[0], g.Qubits[1], g.Qubits[2])
	case circuit.Measure:
		s.checkQubit(g.Qubits[0]) // otherwise a no-op: no sampling here
	default:
		panic(fmt.Sprintf("qsim: unsupported gate kind %v", g.Kind))
	}
}

// applyX swaps the two halves of every block: Pauli X on qubit q.
func (s *State) applyX(q int) {
	s.checkQubit(q)
	bit := 1 << uint(q)
	for base := 0; base < len(s.amp); base += 2 * bit {
		lo := s.amp[base : base+bit]
		hi := s.amp[base+bit : base+2*bit][:len(lo)]
		for k := range lo {
			lo[k], hi[k] = hi[k], lo[k]
		}
	}
}

// applyPhase multiplies the amplitudes with qubit q set by d: diag(1, d),
// the Z, S, Sdg, T and Tdg gates.
func (s *State) applyPhase(d complex128, q int) {
	s.checkQubit(q)
	bit := 1 << uint(q)
	for base := bit; base < len(s.amp); base += 2 * bit {
		hi := s.amp[base : base+bit]
		for k := range hi {
			hi[k] = d * hi[k]
		}
	}
}

// applyDiag applies diag(d0, d1) to qubit q: the RZ gate.
func (s *State) applyDiag(d0, d1 complex128, q int) {
	s.checkQubit(q)
	bit := 1 << uint(q)
	for base := 0; base < len(s.amp); base += 2 * bit {
		lo := s.amp[base : base+bit]
		hi := s.amp[base+bit : base+2*bit][:len(lo)]
		for k := range lo {
			lo[k] = d0 * lo[k]
			hi[k] = d1 * hi[k]
		}
	}
}

// applyReal applies m, whose entries have zero imaginary parts, to qubit q:
// the RY and H gates.
func (s *State) applyReal(m Matrix2, q int) {
	s.checkQubit(q)
	r00, r01, r10, r11 := real(m[0][0]), real(m[0][1]), real(m[1][0]), real(m[1][1])
	bit := 1 << uint(q)
	for base := 0; base < len(s.amp); base += 2 * bit {
		lo := s.amp[base : base+bit]
		hi := s.amp[base+bit : base+2*bit][:len(lo)]
		for k, a0 := range lo {
			a1 := hi[k]
			lo[k] = complex(r00*real(a0)+r01*real(a1), r00*imag(a0)+r01*imag(a1))
			hi[k] = complex(r10*real(a0)+r11*real(a1), r10*imag(a0)+r11*imag(a1))
		}
	}
}

// applyRX applies [[c, i·sn], [i·sn, c]] to qubit q: the RX gate, with
// c = cos(θ/2) and sn = −sin(θ/2).
func (s *State) applyRX(c, sn float64, q int) {
	s.checkQubit(q)
	bit := 1 << uint(q)
	for base := 0; base < len(s.amp); base += 2 * bit {
		lo := s.amp[base : base+bit]
		hi := s.amp[base+bit : base+2*bit][:len(lo)]
		for k, a0 := range lo {
			lo[k], hi[k] = rxMix(c, sn, a0, hi[k])
		}
	}
}

// rxMix returns (c·a0 + i·sn·a1, i·sn·a0 + c·a1), the real/imaginary
// pattern RX applies to a pair and XX to each of its two pairs.
func rxMix(c, sn float64, a0, a1 complex128) (complex128, complex128) {
	return complex(c*real(a0)-sn*imag(a1), c*imag(a0)+sn*real(a1)),
		complex(c*real(a1)-sn*imag(a0), sn*real(a0)+c*imag(a1))
}

// applyXX applies XX(θ) to qubits (a, b), with c = cos θ and sn = −sin θ:
// it mixes |00⟩ with |11⟩ and |01⟩ with |10⟩, each pair as RX does.
func (s *State) applyXX(c, sn float64, a, b int) {
	s.checkPair(a, b)
	ba, bb := 1<<uint(a), 1<<uint(b)
	lo, hi := min(ba, bb), max(ba, bb)
	for o := 0; o < len(s.amp); o += 2 * hi {
		for i := o; i < o+hi; i += 2 * lo {
			x00 := s.amp[i : i+lo]
			x01 := s.amp[i+ba : i+ba+lo][:len(x00)]
			x10 := s.amp[i+bb : i+bb+lo][:len(x00)]
			x11 := s.amp[i+ba+bb : i+ba+bb+lo][:len(x00)]
			for k := range x00 {
				x00[k], x11[k] = rxMix(c, sn, x00[k], x11[k])
				x01[k], x10[k] = rxMix(c, sn, x01[k], x10[k])
			}
		}
	}
}

// applyCNOT swaps, among the amplitudes with the control set, those with
// the target clear and set.
func (s *State) applyCNOT(ctl, tgt int) {
	s.checkPair(ctl, tgt)
	cb, tb := 1<<uint(ctl), 1<<uint(tgt)
	lo, hi := min(cb, tb), max(cb, tb)
	for o := 0; o < len(s.amp); o += 2 * hi {
		for i := o + cb; i < o+hi+cb; i += 2 * lo {
			x := s.amp[i : i+lo]
			y := s.amp[i+tb : i+tb+lo][:len(x)]
			for k := range x {
				x[k], y[k] = y[k], x[k]
			}
		}
	}
}

// applySWAP exchanges the amplitudes with exactly one of qubits a, b set.
func (s *State) applySWAP(a, b int) {
	s.checkPair(a, b)
	ba, bb := 1<<uint(a), 1<<uint(b)
	lo, hi := min(ba, bb), max(ba, bb)
	for o := 0; o < len(s.amp); o += 2 * hi {
		for i := o; i < o+hi; i += 2 * lo {
			x := s.amp[i+ba : i+ba+lo]
			y := s.amp[i+bb : i+bb+lo][:len(x)]
			for k := range x {
				x[k], y[k] = y[k], x[k]
			}
		}
	}
}

// applyCPhase multiplies the amplitudes with both a and b set by ph: CZ
// (ph = −1) and CP(θ) (ph = e^{iθ}).
func (s *State) applyCPhase(ph complex128, a, b int) {
	s.checkPair(a, b)
	ba, bb := 1<<uint(a), 1<<uint(b)
	lo, hi := min(ba, bb), max(ba, bb)
	for o := 0; o < len(s.amp); o += 2 * hi {
		for i := o + ba + bb; i < o+hi+ba+bb; i += 2 * lo {
			x := s.amp[i : i+lo]
			for k := range x {
				x[k] = ph * x[k]
			}
		}
	}
}

// applyCCX swaps, among the amplitudes with both controls set, those with
// the target clear and set.
func (s *State) applyCCX(c0, c1, tgt int) {
	s.checkPair(c0, c1)
	s.checkPair(c0, tgt)
	s.checkPair(c1, tgt)
	b0, b1, bt := 1<<uint(c0), 1<<uint(c1), 1<<uint(tgt)
	lo, hi := min(b0, b1, bt), max(b0, b1, bt)
	mid := (b0 | b1 | bt) &^ (lo | hi)
	for k := 0; k < len(s.amp)>>3; k++ {
		i := insertZero(insertZero(insertZero(k, lo), mid), hi) | b0 | b1
		s.amp[i], s.amp[i|bt] = s.amp[i|bt], s.amp[i]
	}
}

// insertZero returns k with a zero bit inserted at bit (a power of two):
// the bits of k at and above that position move up one place.
func insertZero(k, bit int) int { return (k&^(bit-1))<<1 | k&(bit-1) }
