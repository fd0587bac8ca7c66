// Package sim estimates program success rate and execution time for a
// scheduled TILT execution (paper §IV-E).
//
// Success rate is the product of per-gate fidelities: single-qubit gates
// carry a constant error; two-qubit gates follow Eq. 4 with motional quanta
// q = m·k after m tape moves (k = k₀√n per move, Eq. 3 gate times); SWAP
// gates cost three two-qubit gates at their span. The product is accumulated
// in log space so QFT-scale results (~1e-40) stay representable.
//
// Execution time follows Eq. 5: shuttling time plus the gate critical path —
// tape moves are global barriers (no gate fires mid-shuttle), and gates
// within one head placement run concurrently subject to qubit availability.
package sim

//lint:deterministic-package

import (
	"context"
	"fmt"
	"math"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/noise"
	"repro/internal/schedule"
)

// cancelCheckStride is how many schedule steps / gates run between context
// checks; a power of two so the check compiles to a mask.
const cancelCheckStride = 1024

// Result reports the simulated metrics of one compiled program.
type Result struct {
	// SuccessRate is exp(LogSuccess); it underflows to 0 for very deep
	// circuits — use LogSuccess for comparisons.
	SuccessRate float64
	// LogSuccess is the natural log of the success probability.
	LogSuccess float64
	// ExecTimeUs is the Eq. 5 execution time estimate in microseconds.
	ExecTimeUs float64
	// Moves and DistSpacings echo the schedule's shuttle totals.
	Moves        int
	DistSpacings int
	// DistUm is the shuttle travel in µm (spacings × ion spacing).
	DistUm float64
	// Gate census.
	OneQubitGates int
	TwoQubitGates int // two-qubit gates excluding SWAPs
	SwapGates     int
	// MeanTwoQubitFidelity averages the Eq. 4 fidelity over all two-qubit
	// gate applications (SWAPs count three times).
	MeanTwoQubitFidelity float64
}

// Simulate evaluates the scheduled circuit on a TILT device under the given
// noise parameters. Cancellation of ctx is observed between schedule steps.
func Simulate(ctx context.Context, c *circuit.Circuit, sched *schedule.Schedule, dev device.TILT, p noise.Params) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := dev.Validate(); err != nil {
		return nil, err
	}
	if err := sched.Validate(c, dev); err != nil {
		return nil, fmt.Errorf("sim: invalid schedule: %w", err)
	}

	k := p.ShuttleQuanta(dev.NumIons)
	res := &Result{Moves: sched.Moves, DistSpacings: sched.Dist}
	res.DistUm = float64(sched.Dist) * p.IonSpacingUm

	logF := 0.0
	log1q := math.Log1p(-p.OneQubitError)
	logEps := math.Log1p(p.Epsilon)
	var fidSum float64
	var fidN int

	avail := make([]float64, dev.NumIons) // per-qubit ready time, µs
	clock := 0.0                          // global barrier time
	prevPos := -1
	movesSoFar := 0

	for si, st := range sched.Steps {
		if si%cancelCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		// The move to this placement: a global barrier.
		if prevPos >= 0 {
			span := st.Pos - prevPos
			if span < 0 {
				span = -span
			}
			for _, a := range avail {
				if a > clock {
					clock = a
				}
			}
			clock += p.MoveTime(span)
		}
		prevPos = st.Pos
		movesSoFar++
		quanta := p.EffectiveQuanta(movesSoFar, k)

		for _, gi := range st.Gates {
			g := c.Gate(gi)
			switch {
			case g.Kind == circuit.Measure:
				// Measurement error is out of scope (paper §IV-E).
			case !g.IsTwoQubit():
				logF += log1q
				res.OneQubitGates++
				start := math.Max(clock, avail[g.Qubits[0]])
				avail[g.Qubits[0]] = start + p.OneQubitTimeUs
			case g.Kind == circuit.SWAP:
				d := g.Distance()
				err2 := p.TwoQubitErrorLog(p.GateTime(d), quanta, logEps)
				logF += 3 * safeLog1p(-err2)
				fidSum += 3 * (1 - err2)
				fidN += 3
				res.SwapGates++
				applyTwoQubitTime(avail, clock, g, 3*p.GateTime(d))
			default:
				d := g.Distance()
				err2 := p.TwoQubitErrorLog(p.GateTime(d), quanta, logEps)
				logF += safeLog1p(-err2)
				fidSum += 1 - err2
				fidN++
				res.TwoQubitGates++
				applyTwoQubitTime(avail, clock, g, p.GateTime(d))
			}
		}
	}

	res.LogSuccess = logF
	res.SuccessRate = math.Exp(logF)
	for _, a := range avail {
		if a > clock {
			clock = a
		}
	}
	res.ExecTimeUs = clock
	if fidN > 0 {
		res.MeanTwoQubitFidelity = fidSum / float64(fidN)
	}
	return res, nil
}

// applyTwoQubitTime advances both operands' availability by the gate time,
// starting when both are free and the barrier clock has passed.
func applyTwoQubitTime(avail []float64, clock float64, g circuit.Gate, tau float64) {
	start := clock
	for _, q := range g.Qubits {
		if avail[q] > start {
			start = avail[q]
		}
	}
	end := start + tau
	for _, q := range g.Qubits {
		avail[q] = end
	}
}

// safeLog1p guards log1p(-err) against err == 1 (total loss), returning a
// very negative but finite log-fidelity so accumulations stay comparable.
func safeLog1p(x float64) float64 {
	if x <= -1 {
		return -745 // exp(-745) is the smallest positive float64
	}
	return math.Log1p(x)
}

// SimulateIdeal evaluates the circuit on an ideal fully connected trapped-
// ion device (paper §VI-B "Ideal TI"): no swaps, no moves, Eq. 4 with zero
// quanta, gate distances given directly by qubit separation on the chain.
// Cancellation of ctx is observed between gates.
func SimulateIdeal(ctx context.Context, c *circuit.Circuit, dev device.IdealTI, p noise.Params) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := dev.Validate(); err != nil {
		return nil, err
	}
	if c.NumQubits() > dev.NumIons {
		return nil, fmt.Errorf("sim: circuit width %d exceeds chain %d", c.NumQubits(), dev.NumIons)
	}
	res := &Result{}
	logF := 0.0
	log1q := math.Log1p(-p.OneQubitError)
	logEps := math.Log1p(p.Epsilon)
	var fidSum float64
	var fidN int
	avail := make([]float64, dev.NumIons)

	for gi, g := range c.Gates() {
		if gi%cancelCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		switch {
		case g.Kind == circuit.Measure:
		case !g.IsTwoQubit():
			logF += log1q
			res.OneQubitGates++
			avail[g.Qubits[0]] += p.OneQubitTimeUs
		default:
			d := g.Distance()
			tau := p.GateTime(d)
			err2 := p.TwoQubitErrorLog(tau, 0, logEps)
			n := 1
			if g.Kind == circuit.SWAP {
				n = 3
				res.SwapGates++
			} else {
				res.TwoQubitGates++
			}
			logF += float64(n) * safeLog1p(-err2)
			fidSum += float64(n) * (1 - err2)
			fidN += n
			applyTwoQubitTime(avail, 0, g, float64(n)*tau)
		}
	}
	res.LogSuccess = logF
	res.SuccessRate = math.Exp(logF)
	for _, a := range avail {
		if a > res.ExecTimeUs {
			res.ExecTimeUs = a
		}
	}
	if fidN > 0 {
		res.MeanTwoQubitFidelity = fidSum / float64(fidN)
	}
	return res, nil
}
