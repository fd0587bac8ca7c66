// Package schedule implements the paper's tape-movement scheduling
// (Algorithm 2): repeatedly place the laser head at the position that can
// execute the most pending gates, execute that maximal dependency-closed
// set, and move on, until every gate has run. Minimizing head placements
// minimizes shuttle-induced heating, the dominant error source of Eq. 4.
//
// The scheduler caches the executable set of every head position. The set
// at position p depends only on the frontier of the qubits inside its
// window [p, p+HeadSize-1]: the probe reads no other pointer. A step
// advances the frontier only on the qubits of the gates it executes, so
// after it only the positions whose window holds one of those qubits are
// stale, and every other cached set is still exact. Each step therefore
// re-probes at most 2·HeadSize−1 positions instead of all of them, and the
// schedule is identical to a full rescan.
package schedule

//lint:deterministic-package

import (
	"context"
	"fmt"

	"repro/internal/circuit"
	"repro/internal/device"
)

// cancelCheckEvery is how many scheduling iterations run between context
// checks: each Tape step already scans every head position, so checking every
// step is cheap; the sweeping baseline visits many empty stops per unit of
// work and amortizes its checks over cancelCheckEvery stops.
const cancelCheckEvery = 64

// Step is one head placement and the gates executed there, in execution
// order (a valid topological order of the dependency DAG restricted to the
// window).
type Step struct {
	Pos   int
	Gates []int
}

// Schedule is a complete tape itinerary for a physical circuit.
type Schedule struct {
	Steps []Step
	// Moves counts head placements, including the initial one (the paper's
	// Table III counts BV at 64/L placements).
	Moves int
	// Dist is the total travel between consecutive placements in ion
	// spacings (the initial placement contributes no travel).
	Dist int
}

// Tape schedules the physical circuit c on the device. Every two-qubit gate
// must already satisfy the head constraint (run swap insertion first);
// otherwise an error naming the offending gate is returned. Cancellation of
// ctx is observed between head placements, so a cancelled batch job stops
// mid-schedule.
func Tape(ctx context.Context, c *circuit.Circuit, dev device.TILT) (*Schedule, error) {
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

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s := newScheduler(c, dev)
	sched := &Schedule{}
	cur := -1
	for s.remaining > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		pos := s.bestPosition(cur)
		gates := s.setAt(pos)
		if len(gates) == 0 {
			// Cannot happen when every gate fits some window; defensive.
			return nil, fmt.Errorf("schedule: no executable gates at any head position (%d remaining)", s.remaining)
		}
		gates = s.take(len(s.out), gates)
		s.commit(gates)
		sched.Steps = append(sched.Steps, Step{Pos: pos, Gates: gates})
		if cur >= 0 {
			d := pos - cur
			if d < 0 {
				d = -d
			}
			sched.Dist += d
		}
		cur = pos
	}
	sched.Moves = len(sched.Steps)
	return sched, nil
}

// scheduler holds the frontier state — for each qubit, the index into its
// gate list of the next unexecuted gate — and the per-position cache of
// executable sets.
type scheduler struct {
	gates []circuit.Gate
	dev   device.TILT
	// lists[q] is qubit q's gate indices in program order; all lists share
	// one backing array.
	lists [][]int
	// listPos[2*gi+j] is the index of gate gi within the list of its j-th
	// operand. Both schedulers reject gates of arity above two.
	listPos   []int
	ptr       []int // per-qubit frontier
	remaining int
	scratch   []int // probe frontier; only the probed window is read
	// sets[p] is the executable set at head position p, valid unless
	// dirty[p]. Each is reused as the probe buffer for its position.
	sets  [][]int
	dirty []bool
	// out backs every Step.Gates. Each gate is scheduled exactly once, so
	// it is allocated once at its final size.
	out []int
}

func newScheduler(c *circuit.Circuit, dev device.TILT) *scheduler {
	positions := dev.NumPositions()
	s := &scheduler{
		gates:     c.Gates(),
		dev:       dev,
		lists:     make([][]int, dev.NumIons),
		listPos:   make([]int, 2*c.Len()),
		ptr:       make([]int, dev.NumIons),
		remaining: c.Len(),
		scratch:   make([]int, dev.NumIons),
		sets:      make([][]int, positions),
		dirty:     make([]bool, positions),
		out:       make([]int, 0, c.Len()),
	}
	// Count each qubit's gates (in scratch) to carve the lists out of one
	// array, then fill them in program order.
	total := 0
	for _, g := range s.gates {
		for _, q := range g.Qubits {
			s.scratch[q]++
		}
		total += len(g.Qubits)
	}
	backing := make([]int, total)
	for q, n := range s.scratch {
		s.lists[q], backing = backing[:0:n], backing[n:]
	}
	for i, g := range s.gates {
		for j, q := range g.Qubits {
			s.listPos[2*i+j] = len(s.lists[q])
			s.lists[q] = append(s.lists[q], i)
		}
	}
	for p := range s.dirty {
		s.dirty[p] = true
	}
	return s
}

// bestPosition evaluates every head position and returns the one executing
// the most gates (Eq. 2 score), tie-breaking toward the nearest position to
// cur and then the leftmost — both deterministic.
func (s *scheduler) bestPosition(cur int) int {
	bestPos, bestLen, bestDist := 0, 0, 1<<30
	for p := range s.sets {
		n := len(s.setAt(p))
		d := 0
		if cur >= 0 {
			d = p - cur
			if d < 0 {
				d = -d
			}
		}
		if n > bestLen || (n == bestLen && n > 0 && d < bestDist) {
			bestPos, bestLen, bestDist = p, n, d
		}
	}
	return bestPos
}

// setAt returns the executable set at head position p, re-probing it only
// when a commit since the last probe touched a qubit under its window. The
// slice is the cache's: it is valid until the next commit.
func (s *scheduler) setAt(p int) []int {
	if s.dirty[p] {
		s.sets[p] = s.probe(p, s.sets[p][:0])
		s.dirty[p] = false
	}
	return s.sets[p]
}

// probe appends to out the maximal dependency-closed set of pending gates
// that fit under the head at position p, in a valid execution order.
// It simulates frontier consumption on a scratch copy of the window's
// pointers, looping to a fixpoint: a gate executes when it is the next
// pending gate on every operand and all operands lie inside the window.
func (s *scheduler) probe(p int, out []int) []int {
	hi := p + s.dev.HeadSize - 1
	local := s.scratch
	copy(local[p:hi+1], s.ptr[p:hi+1])
	for {
		progressed := false
		for q := p; q <= hi; q++ {
			for local[q] < len(s.lists[q]) {
				gi := s.lists[q][local[q]]
				qs := s.gates[gi].Qubits
				ready := true
				for j, oq := range qs {
					if oq < p || oq > hi || local[oq] != s.listPos[2*gi+j] {
						ready = false
						break
					}
				}
				if !ready {
					break
				}
				for _, oq := range qs {
					local[oq]++
				}
				out = append(out, gi)
				progressed = true
			}
		}
		if !progressed {
			return out
		}
	}
}

// take copies gates onto the end of the schedule's gate buffer and returns
// the buffer from index from on, capacity-limited so that appending to one
// step's Gates can never overwrite the next step's.
func (s *scheduler) take(from int, gates []int) []int {
	s.out = append(s.out, gates...)
	return s.out[from:len(s.out):len(s.out)]
}

// commit advances the real frontier over the chosen gate set and marks
// stale every cached position whose window holds a touched qubit. A set
// depends only on the frontier inside its window, so every other cached
// set stays exact.
func (s *scheduler) commit(gates []int) {
	lo, hi := s.dev.NumIons, -1
	for _, gi := range gates {
		for _, q := range s.gates[gi].Qubits {
			s.ptr[q]++
			lo, hi = min(lo, q), max(hi, q)
		}
	}
	s.remaining -= len(gates)
	// Windows [p, p+HeadSize-1] meeting [lo, hi]. The gates come from one
	// window, so hi-lo < HeadSize and each of these windows holds lo or hi.
	for p := max(lo-s.dev.HeadSize+1, 0); p <= min(hi, len(s.dirty)-1); p++ {
		s.dirty[p] = true
	}
}

// Validate checks a schedule against its circuit and device: every gate
// appears exactly once, fits its step's window, and respects per-qubit
// program order. Exposed for tests and for defensive callers.
func (sched *Schedule) Validate(c *circuit.Circuit, dev device.TILT) error {
	seen := make([]bool, c.Len())
	// Per-qubit order check uses each qubit's list index.
	listIdx := make([]int, dev.NumIons)
	lists := make([][]int, dev.NumIons)
	for i, g := range c.Gates() {
		for _, q := range g.Qubits {
			lists[q] = append(lists[q], i)
		}
	}
	for si, st := range sched.Steps {
		if st.Pos < 0 || st.Pos > dev.NumIons-dev.HeadSize {
			return fmt.Errorf("schedule: step %d position %d out of range", si, st.Pos)
		}
		for _, gi := range st.Gates {
			if gi < 0 || gi >= c.Len() {
				return fmt.Errorf("schedule: step %d references gate %d", si, gi)
			}
			if seen[gi] {
				return fmt.Errorf("schedule: gate %d scheduled twice", gi)
			}
			seen[gi] = true
			g := c.Gate(gi)
			for _, q := range g.Qubits {
				if q < st.Pos || q > st.Pos+dev.HeadSize-1 {
					return fmt.Errorf("schedule: step %d gate %d qubit %d outside window [%d,%d]",
						si, gi, q, st.Pos, st.Pos+dev.HeadSize-1)
				}
				if lists[q][listIdx[q]] != gi {
					return fmt.Errorf("schedule: gate %d violates program order on qubit %d", gi, q)
				}
				listIdx[q]++
			}
		}
	}
	for gi, ok := range seen {
		if !ok {
			return fmt.Errorf("schedule: gate %d never scheduled", gi)
		}
	}
	return nil
}
