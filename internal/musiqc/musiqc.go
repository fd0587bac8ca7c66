// Package musiqc models the paper's §VII modular scaling proposal: TILT
// devices as the element logic units (ELUs) of a MUSIQC-style architecture
// (Monroe et al.), linked by photonic interconnects.
//
// Qubits are partitioned into contiguous blocks, one per module; each module
// is an independent TILT tape with its own laser head (compiled and scored
// by the TILT backend's stock LinQ pipeline). A two-qubit gate across modules consumes a
// heralded EPR pair between the modules' communication ports and executes as
// a teleported CNOT: two local port interactions plus the EPR pair's
// infidelity. Pair generation is probabilistic, so its expected latency is
// AttemptUs/SuccessProb per pair.
//
// The interesting engineering question §VII raises — when does splitting one
// long hot chain into cooler modules win despite paying for entanglement
// links — is answered by experiments.ModularStudy.
package musiqc

//lint:deterministic-package

import (
	"context"
	"fmt"
	"math"

	tilt "repro"
	"repro/internal/circuit"
	"repro/internal/noise"
)

// Link parameterizes the photonic interconnect.
type Link struct {
	// EPRFidelity is the fidelity of one heralded entangled pair.
	EPRFidelity float64
	// AttemptUs is the duration of one pair-generation attempt.
	AttemptUs float64
	// SuccessProb is the per-attempt heralding probability.
	SuccessProb float64
	// PortOverhead is the number of extra local two-qubit gate
	// equivalents consumed per teleported gate (port entanglement and
	// correction), charged at the port gate distance.
	PortOverhead int
}

// DefaultLink returns interconnect parameters in line with the MUSIQC
// literature: high-fidelity heralded pairs at low success probability.
func DefaultLink() Link {
	return Link{EPRFidelity: 0.96, AttemptUs: 10, SuccessProb: 0.01, PortOverhead: 2}
}

// Validate rejects non-physical link parameters.
func (l Link) Validate() error {
	if l.EPRFidelity <= 0 || l.EPRFidelity > 1 {
		return fmt.Errorf("musiqc: EPRFidelity %g outside (0,1]", l.EPRFidelity)
	}
	if l.AttemptUs < 0 {
		return fmt.Errorf("musiqc: negative AttemptUs")
	}
	if l.SuccessProb <= 0 || l.SuccessProb > 1 {
		return fmt.Errorf("musiqc: SuccessProb %g outside (0,1]", l.SuccessProb)
	}
	if l.PortOverhead < 0 {
		return fmt.Errorf("musiqc: negative PortOverhead")
	}
	return nil
}

// Spec describes a modular machine: Modules TILT tapes of IonsPerModule ions
// each (the last ion of each module is its communication port), every module
// driven by a HeadSize-laser head.
type Spec struct {
	Modules       int
	IonsPerModule int
	HeadSize      int
	Link          Link
}

// Validate checks the specification.
func (s Spec) Validate() error {
	if s.Modules < 1 {
		return fmt.Errorf("musiqc: modules %d < 1", s.Modules)
	}
	if s.IonsPerModule < 3 {
		return fmt.Errorf("musiqc: ions per module %d < 3 (need a data pair plus a port)", s.IonsPerModule)
	}
	if s.HeadSize < 2 || s.HeadSize > s.IonsPerModule {
		return fmt.Errorf("musiqc: head size %d outside [2,%d]", s.HeadSize, s.IonsPerModule)
	}
	return s.Link.Validate()
}

// DataQubits returns the number of program-visible qubits (ports excluded).
func (s Spec) DataQubits() int { return s.Modules * (s.IonsPerModule - 1) }

// Result reports the simulated metrics of one modular execution.
type Result struct {
	SuccessRate float64
	LogSuccess  float64
	// ExecTimeUs is the slowest module's local execution plus the
	// serialized expected EPR-generation latency.
	ExecTimeUs float64
	// CrossGates is the number of teleported (inter-module) gates; each
	// consumed one EPR pair.
	CrossGates int
	// LocalMoves sums tape moves across modules.
	LocalMoves int
	// PerModuleLog holds each module's local log success.
	PerModuleLog []float64
}

// Run partitions the circuit across the modules (qubit q lives in module
// q/(IonsPerModule-1)), compiles each module's local program with the LinQ
// pipeline, and charges every cross-module gate as a teleported CNOT.
// The circuit must be at arity ≤ 2 (run internal/decompose first).
func Run(ctx context.Context, c *circuit.Circuit, spec Spec, p noise.Params) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if c.NumQubits() > spec.DataQubits() {
		return nil, fmt.Errorf("musiqc: circuit width %d exceeds %d data qubits",
			c.NumQubits(), spec.DataQubits())
	}
	for i, g := range c.Gates() {
		if len(g.Qubits) > 2 {
			return nil, fmt.Errorf("musiqc: gate %d (%s) has arity %d; decompose first",
				i, g, len(g.Qubits))
		}
	}
	perMod := spec.IonsPerModule - 1
	moduleOf := func(q int) int { return q / perMod }
	localOf := func(q int) int { return q % perMod }
	port := spec.IonsPerModule - 1 // local index of the communication port

	// Split the program into per-module local circuits. A cross-module
	// gate becomes one port interaction in each endpoint module plus
	// PortOverhead local port gates per side, and one EPR pair.
	locals := make([]*circuit.Circuit, spec.Modules)
	for m := range locals {
		locals[m] = circuit.New(spec.IonsPerModule)
	}
	res := &Result{}
	for i, g := range c.Gates() {
		if i%64 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		switch {
		case g.Kind == circuit.Measure:
			locals[moduleOf(g.Qubits[0])].ApplyMeasure(localOf(g.Qubits[0]))
		case !g.IsTwoQubit():
			locals[moduleOf(g.Qubits[0])].MustAdd(g.Kind, g.Theta, localOf(g.Qubits[0]))
		case moduleOf(g.Qubits[0]) == moduleOf(g.Qubits[1]):
			m := moduleOf(g.Qubits[0])
			locals[m].MustAdd(g.Kind, g.Theta, localOf(g.Qubits[0]), localOf(g.Qubits[1]))
		default:
			if len(g.Qubits) > 2 {
				return nil, fmt.Errorf("musiqc: gate %d has arity %d; decompose first", i, len(g.Qubits))
			}
			// Teleported gate: each side interacts its data qubit with
			// the local port (which holds half the EPR pair), plus the
			// configured overhead gates on the port.
			for side := 0; side < 2; side++ {
				m := moduleOf(g.Qubits[side])
				l := localOf(g.Qubits[side])
				locals[m].ApplyCNOT(l, port)
				for k := 0; k < spec.Link.PortOverhead; k++ {
					locals[m].ApplyRX(math.Pi/2, port)
				}
			}
			res.CrossGates++
		}
	}

	// Compile and score each module independently.
	logF := 0.0
	var slowest float64
	res.PerModuleLog = make([]float64, spec.Modules)
	be := tilt.NewTILT(tilt.WithDevice(spec.IonsPerModule, spec.HeadSize), tilt.WithNoise(p))
	for m, lc := range locals {
		mr, err := tilt.Execute(ctx, be, lc)
		if err != nil {
			return nil, fmt.Errorf("musiqc: module %d: %w", m, err)
		}
		logF += mr.LogSuccess
		res.PerModuleLog[m] = mr.LogSuccess
		res.LocalMoves += mr.TILT.Moves
		if mr.ExecTimeUs > slowest {
			slowest = mr.ExecTimeUs
		}
	}
	// Every cross gate pays the EPR pair's infidelity once.
	logF += float64(res.CrossGates) * math.Log(spec.Link.EPRFidelity)

	res.LogSuccess = logF
	res.SuccessRate = math.Exp(logF)
	res.ExecTimeUs = slowest +
		float64(res.CrossGates)*spec.Link.AttemptUs/spec.Link.SuccessProb
	return res, nil
}

// Monolithic scores the same circuit on one long TILT chain — the
// comparison point for the §VII modular-vs-monolithic study. It returns the
// log success rate.
func Monolithic(ctx context.Context, c *circuit.Circuit, ions, head int, p noise.Params) (float64, error) {
	res, err := tilt.Execute(ctx, tilt.NewTILT(tilt.WithDevice(ions, head), tilt.WithNoise(p)), c)
	if err != nil {
		return 0, err
	}
	return res.LogSuccess, nil
}
