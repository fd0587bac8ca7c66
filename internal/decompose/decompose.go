// Package decompose lowers high-level gates to the trapped-ion native gate
// set {RX, RY, RZ, XX} used by the TILT architecture (paper §IV-B).
//
// The CNOT lowering is the paper's sequence:
//
//	Ry(π/2) q1; XX(π/4) q1,q2; Rx(−π/2) q1; Rx(−π/2) q2; Ry(−π/2) q1
//
// All other multi-qubit gates are first expressed over CNOT + single-qubit
// gates (standard textbook identities), then each CNOT is lowered to one
// Mølmer–Sørensen XX(π/4) with local rotations. Consequently the two-qubit
// gate count of the native circuit equals the CNOT count of the intermediate
// form — the counting convention used by Table II of the paper.
package decompose

import (
	"fmt"
	"math"

	"repro/internal/circuit"
)

// ToNative lowers every gate of c to the native set {RX, RY, RZ, XX}.
// Measure markers pass through unchanged. The result is a fresh circuit of
// the same width.
func ToNative(c *circuit.Circuit) *circuit.Circuit {
	out := circuit.New(c.NumQubits())
	for _, g := range c.Gates() {
		emitNative(out, g)
	}
	return out
}

// ToCNOT lowers every gate of c to {single-qubit gates, CNOT}. This is the
// intermediate level at which the paper counts two-qubit gates (Table II).
func ToCNOT(c *circuit.Circuit) *circuit.Circuit {
	out := circuit.New(c.NumQubits())
	for _, g := range c.Gates() {
		emitCNOTLevel(lowering{out: out}, g)
	}
	return out
}

// TwoQubitGateCount returns the number of two-qubit gates c contains after
// lowering to the CNOT level — the Table II counting convention.
func TwoQubitGateCount(c *circuit.Circuit) int {
	return ToCNOT(c).TwoQubitCount()
}

func emitNative(out *circuit.Circuit, g circuit.Gate) {
	switch g.Kind {
	case circuit.I:
		// dropped
	case circuit.X:
		out.ApplyRX(math.Pi, g.Qubits[0])
	case circuit.Y:
		out.ApplyRY(math.Pi, g.Qubits[0])
	case circuit.Z:
		out.ApplyRZ(math.Pi, g.Qubits[0])
	case circuit.S:
		out.ApplyRZ(math.Pi/2, g.Qubits[0])
	case circuit.Sdg:
		out.ApplyRZ(-math.Pi/2, g.Qubits[0])
	case circuit.T:
		out.ApplyRZ(math.Pi/4, g.Qubits[0])
	case circuit.Tdg:
		out.ApplyRZ(-math.Pi/4, g.Qubits[0])
	case circuit.H:
		// H = Ry(π/2)·Z up to global phase: apply Rz(π) first, then Ry(π/2).
		out.ApplyRZ(math.Pi, g.Qubits[0])
		out.ApplyRY(math.Pi/2, g.Qubits[0])
	case circuit.RX, circuit.RY, circuit.RZ, circuit.XX:
		out.MustAdd(g.Kind, g.Theta, g.Qubits...)
	case circuit.CNOT:
		emitCNOTNative(out, g.Qubits[0], g.Qubits[1])
	case circuit.CZ, circuit.CP, circuit.SWAP, circuit.CCX:
		emitCNOTLevel(lowering{out: out, native: true}, g)
	case circuit.Measure:
		out.MustAdd(circuit.Measure, 0, g.Qubits...)
	default:
		panic(fmt.Sprintf("decompose: unsupported gate kind %v", g.Kind))
	}
}

// emitCNOTNative emits the paper's 5-gate CNOT lowering.
func emitCNOTNative(out *circuit.Circuit, ctl, tgt int) {
	out.ApplyRY(math.Pi/2, ctl)
	out.ApplyXX(math.Pi/4, ctl, tgt)
	out.ApplyRX(-math.Pi/2, ctl)
	out.ApplyRX(-math.Pi/2, tgt)
	out.ApplyRY(-math.Pi/2, ctl)
}

// lowering is where emitCNOTLevel writes: straight into out, or through
// emitNative when the CNOT-level gates are only a step on the way to the
// native set.
type lowering struct {
	out    *circuit.Circuit
	native bool
}

func (l lowering) add(k circuit.Kind, theta float64, qubits ...int) {
	if l.native {
		emitNative(l.out, circuit.Gate{Kind: k, Qubits: qubits, Theta: theta})
		return
	}
	l.out.MustAdd(k, theta, qubits...)
}

func emitCNOTLevel(out lowering, g circuit.Gate) {
	switch g.Kind {
	case circuit.CZ:
		a, b := g.Qubits[0], g.Qubits[1]
		out.add(circuit.H, 0, b)
		out.add(circuit.CNOT, 0, a, b)
		out.add(circuit.H, 0, b)
	case circuit.CP:
		// cp(θ) a,b = rz(θ/2) a; cx a,b; rz(−θ/2) b; cx a,b; rz(θ/2) b
		// (standard Qiskit u1-based identity, exact up to global phase).
		a, b := g.Qubits[0], g.Qubits[1]
		th := g.Theta
		out.add(circuit.RZ, th/2, a)
		out.add(circuit.CNOT, 0, a, b)
		out.add(circuit.RZ, -th/2, b)
		out.add(circuit.CNOT, 0, a, b)
		out.add(circuit.RZ, th/2, b)
	case circuit.SWAP:
		a, b := g.Qubits[0], g.Qubits[1]
		out.add(circuit.CNOT, 0, a, b)
		out.add(circuit.CNOT, 0, b, a)
		out.add(circuit.CNOT, 0, a, b)
	case circuit.CCX:
		// Standard 6-CNOT Toffoli (Nielsen & Chuang Fig. 4.9).
		a, b, t := g.Qubits[0], g.Qubits[1], g.Qubits[2]
		out.add(circuit.H, 0, t)
		out.add(circuit.CNOT, 0, b, t)
		out.add(circuit.Tdg, 0, t)
		out.add(circuit.CNOT, 0, a, t)
		out.add(circuit.T, 0, t)
		out.add(circuit.CNOT, 0, b, t)
		out.add(circuit.Tdg, 0, t)
		out.add(circuit.CNOT, 0, a, t)
		out.add(circuit.T, 0, b)
		out.add(circuit.T, 0, t)
		out.add(circuit.H, 0, t)
		out.add(circuit.CNOT, 0, a, b)
		out.add(circuit.T, 0, a)
		out.add(circuit.Tdg, 0, b)
		out.add(circuit.CNOT, 0, a, b)
	default:
		// Everything else is already at (or below) the CNOT level.
		out.add(g.Kind, g.Theta, g.Qubits...)
	}
}
