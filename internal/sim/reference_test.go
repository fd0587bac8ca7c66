package sim_test

import (
	"context"
	"fmt"
	"math"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/noise"
	"repro/internal/render"
	"repro/internal/schedule"
	"repro/internal/sim"
)

// Independent walks of the noise model, one per evaluator, each over the
// raw schedule with its own Eq. 3/4 calls: a single-pass TILT simulator, a
// single-pass ideal simulator, the Monte-Carlo event-stream builder and the
// per-step fidelity profile. They are the differential oracle for sim's one
// walk and for the evaluators that read its events; keep them unoptimised
// and unshared.

// refCancelCheckStride is how many schedule steps / gates run between
// context checks.
const refCancelCheckStride = 1024

// refSimulate is the single-pass TILT simulator.
func refSimulate(ctx context.Context, c *circuit.Circuit, sched *schedule.Schedule, dev device.TILT, p noise.Params) (*sim.Result, error) {
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
	res := &sim.Result{Moves: sched.Moves, DistSpacings: sched.Dist}
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
		if si%refCancelCheckStride == 0 {
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
				logF += 3 * refSafeLog1p(-err2)
				fidSum += 3 * (1 - err2)
				fidN += 3
				res.SwapGates++
				refApplyTwoQubitTime(avail, clock, g, 3*p.GateTime(d))
			default:
				d := g.Distance()
				err2 := p.TwoQubitErrorLog(p.GateTime(d), quanta, logEps)
				logF += refSafeLog1p(-err2)
				fidSum += 1 - err2
				fidN++
				res.TwoQubitGates++
				refApplyTwoQubitTime(avail, clock, g, p.GateTime(d))
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

// refApplyTwoQubitTime advances both operands' availability by the gate
// time, starting when both are free and the barrier clock has passed.
func refApplyTwoQubitTime(avail []float64, clock float64, g circuit.Gate, tau float64) {
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

// refSafeLog1p guards log1p(-err) against err == 1 (total loss).
func refSafeLog1p(x float64) float64 {
	if x <= -1 {
		return -745 // exp(-745) is the smallest positive float64
	}
	return math.Log1p(x)
}

// refSimulateIdeal is the single-pass ideal trapped-ion simulator.
func refSimulateIdeal(ctx context.Context, c *circuit.Circuit, dev device.IdealTI, p noise.Params) (*sim.Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := dev.Validate(); err != nil {
		return nil, err
	}
	if c.NumQubits() > dev.NumIons {
		return nil, fmt.Errorf("sim: circuit width %d exceeds chain %d", c.NumQubits(), dev.NumIons)
	}
	res := &sim.Result{}
	logF := 0.0
	log1q := math.Log1p(-p.OneQubitError)
	logEps := math.Log1p(p.Epsilon)
	var fidSum float64
	var fidN int
	avail := make([]float64, dev.NumIons)

	for gi, g := range c.Gates() {
		if gi%refCancelCheckStride == 0 {
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
			logF += float64(n) * refSafeLog1p(-err2)
			fidSum += float64(n) * (1 - err2)
			fidN += n
			refApplyTwoQubitTime(avail, 0, g, float64(n)*tau)
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

// refEvent is one scheduled gate with its error probability, as the
// Monte-Carlo engine samples it.
type refEvent struct {
	gate circuit.Gate
	p    float64 // error probability per application
	reps int     // 3 for SWAP, 1 otherwise
}

// refEvents is the Monte-Carlo engine's event-stream builder: the schedule
// flattened into per-gate error probabilities.
func refEvents(c *circuit.Circuit, sched *schedule.Schedule, dev device.TILT, p noise.Params) ([]refEvent, error) {
	if err := sched.Validate(c, dev); err != nil {
		return nil, fmt.Errorf("mc: invalid schedule: %w", err)
	}
	k := p.ShuttleQuanta(dev.NumIons)
	logEps := math.Log1p(p.Epsilon)
	var evs []refEvent
	for i, st := range sched.Steps {
		quanta := p.EffectiveQuanta(i+1, k)
		for _, gi := range st.Gates {
			g := c.Gate(gi)
			switch {
			case g.Kind == circuit.Measure:
			case !g.IsTwoQubit():
				evs = append(evs, refEvent{gate: g, p: p.OneQubitError, reps: 1})
			case g.Kind == circuit.SWAP:
				p2q := p.TwoQubitErrorLog(p.GateTime(g.Distance()), quanta, logEps)
				evs = append(evs, refEvent{gate: g, p: p2q, reps: 3})
			default:
				p2q := p.TwoQubitErrorLog(p.GateTime(g.Distance()), quanta, logEps)
				evs = append(evs, refEvent{gate: g, p: p2q, reps: 1})
			}
		}
	}
	return evs, nil
}

// refProfile is render.Profile's per-step walk: the mean Eq. 4 two-qubit
// fidelity of each head placement.
func refProfile(c *circuit.Circuit, sched *schedule.Schedule, dev device.TILT, p noise.Params) []render.FidelityProfile {
	k := p.ShuttleQuanta(dev.NumIons)
	out := make([]render.FidelityProfile, 0, len(sched.Steps))
	for i, st := range sched.Steps {
		quanta := p.EffectiveQuanta(i+1, k)
		var fidSum float64
		var n int
		for _, gi := range st.Gates {
			g := c.Gate(gi)
			if !g.IsTwoQubit() {
				continue
			}
			reps := 1
			if g.Kind == circuit.SWAP {
				reps = 3
			}
			fid := p.TwoQubitFidelity(g.Distance(), quanta)
			fidSum += float64(reps) * fid
			n += reps
		}
		prof := render.FidelityProfile{Step: i + 1, Pos: st.Pos, Quanta: quanta, MeanFid: 1, TwoQubit: n}
		if n > 0 {
			prof.MeanFid = fidSum / float64(n)
		}
		out = append(out, prof)
	}
	return out
}
