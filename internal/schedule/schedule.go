// Package schedule implements the paper's tape-movement scheduling
// (Algorithm 2): repeatedly place the laser head at the position that can
// execute the most pending gates, execute that maximal dependency-closed
// set, and move on, until every gate has run. Minimizing head placements
// minimizes shuttle-induced heating, the dominant error source of Eq. 4.
//
// The executable set at a head position is unique — the largest set of
// pending gates inside the window that is closed under program order — so
// its size does not depend on the order it is found in. Tape keeps, for
// every position, the window's local frontier past that set and the set's
// size. A step advances the real frontier only on the qubits of the gates
// it executes, so only the windows holding one of those qubits change:
// each raises the local pointers that fell behind and extends its set from
// just those qubits. A gate joins a window's set at most once, so the
// closure work of a whole schedule is at most HeadSize × gates. Choosing a
// position reads the sizes; the ordered probe runs once per step, at the
// chosen position, to put Step.Gates in execution order.
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
	s.initWindows()
	sched := &Schedule{}
	cur := -1
	for s.remaining > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		pos := s.bestPosition(cur)
		from := len(s.out)
		s.out = s.probe(pos, s.out)
		gates := s.since(from)
		if len(gates) == 0 {
			// Cannot happen when every gate fits some window; defensive.
			return nil, fmt.Errorf("schedule: no executable gates at any head position (%d remaining)", s.remaining)
		}
		if len(gates) != s.count[pos] {
			return nil, fmt.Errorf("schedule: position %d executes %d gates but its window counted %d", pos, len(gates), s.count[pos])
		}
		s.advance(s.commit(gates))
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
// gate list of the next unexecuted gate — and, for Tape, every head
// position's window state.
//
// Qubit q's gate list is the entries first[q] to first[q+1]-1 of the flat
// per-entry arrays, in program order. Entry e is gate gate[e]; partner[e]
// is that gate's other operand (-1 for a one-qubit gate) and partnerIdx[e]
// the gate's index in the partner's list, so neither the closure nor the
// probe reads Gate.Qubits. Both schedulers reject gates of arity above two.
type scheduler struct {
	gates      []circuit.Gate
	dev        device.TILT
	first      []int32
	gate       []int32
	partner    []int32
	partnerIdx []int32
	// owned[first[q]+q+i] counts the gates among qubit q's first i whose
	// first operand is q: a prefix sum per qubit, so a window's set size is
	// a sum of differences over its qubits and each gate counts once.
	owned     []int32
	ptr       []int32 // per-qubit frontier
	remaining int
	scratch   []int32 // probe frontier; only the probed window is read
	// out backs every Step.Gates. Each gate is scheduled exactly once, so
	// it is allocated once at its final size.
	out []int

	// Window state, built by initWindows (Tape only). loc[p*HeadSize+k] is
	// window p's local frontier on qubit p+k: the real frontier advanced
	// past the window's executable set. count[p] is that set's size.
	loc   []int32
	count []int
	stack []int32 // closure worklist of qubits whose local frontier moved
}

func newScheduler(c *circuit.Circuit, dev device.TILT) *scheduler {
	n := dev.NumIons
	gates := c.Gates()
	s := &scheduler{
		gates:     gates,
		dev:       dev,
		first:     make([]int32, n+1),
		ptr:       make([]int32, n),
		remaining: len(gates),
		scratch:   make([]int32, n),
		out:       make([]int, 0, len(gates)),
	}
	for _, g := range gates {
		for _, q := range g.Qubits {
			s.first[q+1]++
		}
	}
	for q := range n {
		s.first[q+1] += s.first[q]
	}
	entries := s.first[n]
	s.gate = make([]int32, entries)
	s.partner = make([]int32, entries)
	s.partnerIdx = make([]int32, entries)
	s.owned = make([]int32, int(entries)+n)
	// Fill the lists in program order, counting each qubit's entries so far
	// in scratch.
	fill := s.scratch
	for i, g := range gates {
		q0 := g.Qubits[0]
		i0 := fill[q0]
		e0 := s.first[q0] + i0
		s.gate[e0] = int32(i)
		s.partner[e0] = -1
		s.owned[e0+int32(q0)+1] = s.owned[e0+int32(q0)] + 1
		if len(g.Qubits) == 2 {
			q1 := g.Qubits[1]
			i1 := fill[q1]
			e1 := s.first[q1] + i1
			s.gate[e1] = int32(i)
			s.partner[e0], s.partnerIdx[e0] = int32(q1), i1
			s.partner[e1], s.partnerIdx[e1] = int32(q0), i0
			s.owned[e1+int32(q1)+1] = s.owned[e1+int32(q1)]
			fill[q1]++
		}
		fill[q0]++
	}
	clear(s.scratch)
	return s
}

// initWindows builds every head position's executable set from the
// initial frontier.
func (s *scheduler) initWindows() {
	h := s.dev.HeadSize
	positions := s.dev.NumPositions()
	s.loc = make([]int32, positions*h)
	s.count = make([]int, positions)
	s.stack = make([]int32, 0, 2*h)
	for p := range positions {
		for q := p; q < p+h; q++ {
			s.stack = append(s.stack, int32(q))
		}
		s.extend(p)
	}
}

// extend grows window p's executable set from the qubits on the worklist
// until no gate in the window is ready, then recounts the set. A gate is
// ready when it is the next pending gate on every operand and all of them
// lie inside the window; running it moves its partner, which is pushed.
func (s *scheduler) extend(p int) {
	h := s.dev.HeadSize
	loc := s.loc[p*h : p*h+h]
	for len(s.stack) > 0 {
		q := s.stack[len(s.stack)-1]
		s.stack = s.stack[:len(s.stack)-1]
		k := int(q) - p
		for e := s.first[q] + loc[k]; e < s.first[q+1]; e = s.first[q] + loc[k] {
			if r := s.partner[e]; r >= 0 {
				kr := int(r) - p
				if uint(kr) >= uint(h) || loc[kr] != s.partnerIdx[e] {
					break
				}
				loc[kr]++
				s.stack = append(s.stack, r)
			}
			loc[k]++
		}
	}
	n := 0
	for k, i := range loc {
		base := s.first[p+k] + int32(p+k)
		n += int(s.owned[base+i] - s.owned[base+s.ptr[p+k]])
	}
	s.count[p] = n
}

// bestPosition returns the head position executing the most gates (Eq. 2
// score), tie-breaking toward the nearest position to cur and then the
// leftmost — both deterministic.
func (s *scheduler) bestPosition(cur int) int {
	bestPos, bestLen, bestDist := 0, 0, 1<<30
	for p, n := range s.count {
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
			for e := s.first[q] + local[q]; e < s.first[q+1]; e = s.first[q] + local[q] {
				if r := s.partner[e]; r >= 0 {
					if int(r) < p || int(r) > hi || local[r] != s.partnerIdx[e] {
						break
					}
					local[r]++
				}
				local[q]++
				out = append(out, int(s.gate[e]))
				progressed = true
			}
		}
		if !progressed {
			return out
		}
	}
}

// since returns the schedule's gate buffer from index from on,
// capacity-limited so that appending to one step's Gates can never
// overwrite the next step's.
func (s *scheduler) since(from int) []int {
	return s.out[from:len(s.out):len(s.out)]
}

// commit advances the real frontier over the chosen gate set and returns
// the lowest and highest qubit it moved.
func (s *scheduler) commit(gates []int) (lo, hi int) {
	lo, hi = s.dev.NumIons, -1
	for _, gi := range gates {
		for _, q := range s.gates[gi].Qubits {
			s.ptr[q]++
			lo, hi = min(lo, q), max(hi, q)
		}
	}
	s.remaining -= len(gates)
	return lo, hi
}

// advance updates every window holding a qubit in [lo, hi] after a commit
// moved the frontier there; every other window's set is unchanged, since a
// set depends only on the frontier inside its window. A window's old set
// minus the committed gates is still executable, so its local frontier is
// raised to the real one where it fell behind and the set grows from the
// raised qubits only.
func (s *scheduler) advance(lo, hi int) {
	h := s.dev.HeadSize
	// The gates come from one window, so at most 2·HeadSize−1 windows meet
	// [lo, hi].
	for p := max(lo-h+1, 0); p <= min(hi, len(s.count)-1); p++ {
		loc := s.loc[p*h : p*h+h]
		for q := max(p, lo); q <= min(p+h-1, hi); q++ {
			if loc[q-p] < s.ptr[q] {
				loc[q-p] = s.ptr[q]
				s.stack = append(s.stack, int32(q))
			}
		}
		s.extend(p)
	}
}

// Validate checks a schedule against its circuit and device: every gate
// appears exactly once, fits its step's window, and respects per-qubit
// program order. Exposed for tests and for defensive callers.
func (sched *Schedule) Validate(c *circuit.Circuit, dev device.TILT) error {
	seen := make([]bool, c.Len())
	// last[q] is the latest gate executed on qubit q so far. With every
	// gate scheduled exactly once (checked here), a qubit's gates run in
	// program order exactly when their indices increase.
	last := make([]int, dev.NumIons)
	for q := range last {
		last[q] = -1
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
				if gi < last[q] {
					return fmt.Errorf("schedule: gate %d violates program order on qubit %d", gi, q)
				}
				last[q] = gi
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
