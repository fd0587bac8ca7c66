package schedule

import (
	"context"
	"fmt"

	"repro/internal/circuit"
	"repro/internal/device"
)

// Sweep is the naive tape scheduler used as an ablation baseline for
// Algorithm 2: the head scans left to right, executing whatever is runnable
// at each stop, and reverses direction at the chain ends until the program
// drains. It ignores gate density entirely — the scheduling signal the
// paper's greedy scorer exploits — so it bounds how much Eq. 2 buys.
//
// The sweep visits every head position in order so that even gates with a
// single valid placement (span = head−1) are reachable; empty stops record
// no step and count no move. Cancellation of ctx is observed every few dozen
// stops.
func Sweep(ctx context.Context, c *circuit.Circuit, dev device.TILT) (*Schedule, error) {
	if err := dev.Validate(); err != nil {
		return nil, err
	}
	if c.NumQubits() > dev.NumIons {
		return nil, fmt.Errorf("schedule: circuit width %d exceeds chain %d",
			c.NumQubits(), dev.NumIons)
	}
	for i, g := range c.Gates() {
		if g.IsTwoQubit() && g.Distance() > dev.MaxGateDistance() {
			return nil, fmt.Errorf("schedule: gate %d (%s) spans %d > head limit %d",
				i, g, g.Distance(), dev.MaxGateDistance())
		}
		if len(g.Qubits) > 2 {
			return nil, fmt.Errorf("schedule: gate %d (%s) has arity %d", i, g, len(g.Qubits))
		}
	}

	s := newScheduler(c, dev)
	sched := &Schedule{}
	// Stops: every head position, so even a gate with a single valid
	// placement (span = head−1) is reachable. Stops that execute nothing
	// record no step and count no move.
	maxPos := dev.NumIons - dev.HeadSize
	stops := make([]int, maxPos+1)
	for p := range stops {
		stops[p] = p
	}

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cur := -1
	idx := 0
	dir := 1
	stalls := 0
	visited := 0
	for s.remaining > 0 {
		visited++
		if visited%cancelCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		p := stops[idx]
		if gates := s.setAt(p); len(gates) > 0 {
			if p != cur {
				sched.Steps = append(sched.Steps, Step{Pos: p, Gates: s.take(len(s.out), gates)})
				if cur >= 0 {
					d := p - cur
					if d < 0 {
						d = -d
					}
					sched.Dist += d
				}
				cur = p
			} else {
				// Same stop produced more gates after a full lap
				// unblocked dependencies; append to the last step, which
				// ends the gate buffer.
				last := &sched.Steps[len(sched.Steps)-1]
				last.Gates = s.take(len(s.out)-len(last.Gates), gates)
			}
			s.commit(gates)
			stalls = 0
		} else {
			stalls++
			if stalls > 2*len(stops) {
				return nil, fmt.Errorf("schedule: sweep stalled with %d gates remaining", s.remaining)
			}
		}
		// Bounce at the ends.
		if idx+dir < 0 || idx+dir >= len(stops) {
			dir = -dir
		}
		idx += dir
		if len(stops) == 1 {
			idx = 0
		}
	}
	sched.Moves = len(sched.Steps)
	return sched, nil
}
