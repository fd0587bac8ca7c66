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
//
// The models are applied in one place, a single walk over the schedule that
// computes one Event per noisy gate — its error probability, repetitions
// and duration — and folds it into the metrics above as it goes. Simulate
// keeps only the metrics. Prepare keeps the event list too, in a Program:
// internal/mc samples that list and internal/render groups it by
// placement, so every evaluator reads the same numbers.
package sim

//lint:deterministic-package

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"

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

// Event is one noisy gate of a Program. Measurements carry no error
// (paper §IV-E) and have no event.
type Event struct {
	Gate int     // index into the program's circuit
	Step int     // index into Program.Steps: the placement it runs under
	P    float64 // error probability of one application (Eq. 4 for 2Q gates)
	Reps int     // 3 for a SWAP (three two-qubit gates at its span), else 1
	Tau  float64 // duration of one application, µs (Eq. 3 for 2Q gates)
}

// Step is one head placement of a Program.
type Step struct {
	Pos    int     // head position on the tape
	Quanta float64 // motional quanta during its gates (Eq. 4's q)
}

// Program is a validated program walked once: the metrics the walk folded
// and the event list the other evaluators read. Build one with Prepare. It
// is immutable, so safe for concurrent use; callers must not modify the
// slices its accessors return.
type Program struct {
	c      *circuit.Circuit
	ions   int
	res    Result
	steps  []Step
	events []Event
}

// Prepare validates the noise parameters, the TILT device and the schedule
// of c on it, then walks the schedule once into a Program. Cancellation of
// ctx is observed between schedule steps.
func Prepare(ctx context.Context, c *circuit.Circuit, sched *schedule.Schedule, dev device.TILT, p noise.Params) (*Program, error) {
	return prepare(ctx, c, sched, dev, p, true)
}

// prepare is Prepare; keep says whether the Program keeps its steps and
// events or only the folded metrics.
func prepare(ctx context.Context, c *circuit.Circuit, sched *schedule.Schedule, dev device.TILT, p noise.Params, keep bool) (*Program, error) {
	if err := cmp.Or(p.Validate(), dev.Validate()); err != nil {
		return nil, err
	}
	if err := sched.Validate(c, dev); err != nil {
		return nil, fmt.Errorf("sim: invalid schedule: %w", err)
	}
	return walk(ctx, c, sched, dev.NumIons, p, keep)
}

// walk is the one application of the noise and timing models: Eq. 3 gate
// times, Eq. 4 errors at the quanta of m moves (with the shared
// sympathetic-cooling accounting), constant single-qubit error, SWAP = three
// two-qubit applications. It folds each noisy gate's event into the metrics
// in execution order, and keeps the steps and events when keep is set.
// Cancellation of ctx is observed every 1024 steps and, within a step,
// every 1024 gates.
func walk(ctx context.Context, c *circuit.Circuit, sched *schedule.Schedule, ions int, p noise.Params, keep bool) (*Program, error) {
	prog := &Program{c: c, ions: ions}
	if keep {
		prog.steps, prog.events = make([]Step, 0, len(sched.Steps)), make([]Event, 0, c.Len())
	}
	res := &prog.res
	res.Moves, res.DistSpacings, res.DistUm = sched.Moves, sched.Dist, float64(sched.Dist)*p.IonSpacingUm
	k := p.ShuttleQuanta(ions)
	logEps := math.Log1p(p.Epsilon)
	log1q := math.Log1p(-p.OneQubitError)
	var logF, fidSum float64
	var fidN int

	// Per-qubit ready times and the global barrier time, µs. A validated
	// device has at least two ions, and no time is NaN or −0.
	avail := make([]float64, ions)
	clock := 0.0
	for si, st := range sched.Steps {
		if si%cancelCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if si > 0 { // the move to this placement: a global barrier
			clock = max(clock, slices.Max(avail)) + p.MoveTime(st.Pos-sched.Steps[si-1].Pos)
		}
		quanta := p.EffectiveQuanta(si+1, k)
		if keep {
			prog.steps = append(prog.steps, Step{Pos: st.Pos, Quanta: quanta})
		}
		for j, gi := range st.Gates {
			if j > 0 && j%cancelCheckStride == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			g := c.Gate(gi)
			var pe, tau float64 // the event's P and Tau
			reps := 1
			switch {
			case g.Kind == circuit.Measure:
				continue // measurement error is out of scope (paper §IV-E)
			case !g.IsTwoQubit():
				pe, tau = p.OneQubitError, p.OneQubitTimeUs
				logF += log1q
				res.OneQubitGates++
				start, q := clock, g.Qubits[0]
				if avail[q] > start {
					start = avail[q]
				}
				avail[q] = start + tau
			default:
				tau = p.GateTime(g.Distance())
				pe = p.TwoQubitErrorLog(tau, quanta, logEps)
				if g.Kind == circuit.SWAP {
					reps = 3
					res.SwapGates++
				} else {
					res.TwoQubitGates++
				}
				n := float64(reps)
				logF += n * safeLog1p(-pe)
				fidSum += n * (1 - pe)
				fidN += reps
				// Both operands start once both are free and the barrier
				// has passed.
				start, q0, q1 := clock, g.Qubits[0], g.Qubits[1]
				if avail[q0] > start {
					start = avail[q0]
				}
				if avail[q1] > start {
					start = avail[q1]
				}
				avail[q0], avail[q1] = start+n*tau, start+n*tau
			}
			if keep {
				prog.events = append(prog.events, Event{Gate: gi, Step: si, P: pe, Reps: reps, Tau: tau})
			}
		}
	}

	res.LogSuccess = logF
	res.SuccessRate = math.Exp(logF)
	res.ExecTimeUs = max(clock, slices.Max(avail))
	if fidN > 0 {
		res.MeanTwoQubitFidelity = fidSum / float64(fidN)
	}
	return prog, nil
}

// Circuit returns the program's circuit, which Event.Gate indexes.
func (prog *Program) Circuit() *circuit.Circuit { return prog.c }

// Ions returns the device's chain length.
func (prog *Program) Ions() int { return prog.ions }

// Steps returns the program's head placements in execution order.
func (prog *Program) Steps() []Step { return prog.steps }

// Events returns the program's noisy gates in execution order.
func (prog *Program) Events() []Event { return prog.events }

// Result returns a copy of the metrics the walk folded from the events.
func (prog *Program) Result() *Result {
	res := prog.res
	return &res
}

// safeLog1p guards log1p(-err) against err == 1 (total loss), returning a
// very negative but finite log-fidelity so accumulations stay comparable.
func safeLog1p(x float64) float64 {
	if x <= -1 {
		return -745 // exp(-745) is the smallest positive float64
	}
	return math.Log1p(x)
}

// Simulate evaluates the scheduled circuit on a TILT device under the given
// noise parameters: Prepare, keeping only the metrics.
func Simulate(ctx context.Context, c *circuit.Circuit, sched *schedule.Schedule, dev device.TILT, p noise.Params) (*Result, error) {
	prog, err := prepare(ctx, c, sched, dev, p, false)
	if err != nil {
		return nil, err
	}
	return &prog.res, nil
}

// SimulateIdeal evaluates the circuit on an ideal fully connected trapped-
// ion device (paper §VI-B "Ideal TI"): one placement, no swaps, no moves,
// Eq. 4 with zero quanta, gate distances given directly by qubit separation
// on the chain. Cancellation of ctx is observed between gates.
func SimulateIdeal(ctx context.Context, c *circuit.Circuit, dev device.IdealTI, p noise.Params) (*Result, error) {
	if err := cmp.Or(p.Validate(), dev.Validate()); err != nil {
		return nil, err
	}
	if c.NumQubits() > dev.NumIons {
		return nil, fmt.Errorf("sim: circuit width %d exceeds chain %d", c.NumQubits(), dev.NumIons)
	}
	// The walk of a TILT program with one placement holding every gate, on
	// a chain no move ever heats.
	gates := make([]int, c.Len())
	for i := range gates {
		gates[i] = i
	}
	p.K0 = 0
	prog, err := walk(ctx, c, &schedule.Schedule{Steps: []schedule.Step{{Gates: gates}}}, dev.NumIons, p, false)
	if err != nil {
		return nil, err
	}
	return &prog.res, nil
}
