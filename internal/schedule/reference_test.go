package schedule

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/circuit"
	"repro/internal/decompose"
	"repro/internal/device"
	"repro/internal/mapping"
	"repro/internal/swapins"
	"repro/internal/workloads"
)

// refScheduler is the full-rescan tape scheduler the incremental one must
// reproduce exactly: every step re-probes every head position from scratch
// with a fresh slice per probe. It is the differential oracle for Tape and
// Sweep; keep it unoptimised.
type refScheduler struct {
	c         *circuit.Circuit
	dev       device.TILT
	lists     [][]int
	listPos   [][]int
	ptr       []int
	remaining int
	scratch   []int
}

func newRefScheduler(c *circuit.Circuit, dev device.TILT) *refScheduler {
	s := &refScheduler{
		c:         c,
		dev:       dev,
		lists:     make([][]int, dev.NumIons),
		listPos:   make([][]int, c.Len()),
		ptr:       make([]int, dev.NumIons),
		remaining: c.Len(),
		scratch:   make([]int, dev.NumIons),
	}
	for i, g := range c.Gates() {
		s.listPos[i] = make([]int, len(g.Qubits))
		for j, q := range g.Qubits {
			s.listPos[i][j] = len(s.lists[q])
			s.lists[q] = append(s.lists[q], i)
		}
	}
	return s
}

func (s *refScheduler) bestPosition(cur int) (int, []int) {
	bestPos := 0
	var bestGates []int
	bestDist := 1 << 30
	for p := 0; p <= s.dev.NumIons-s.dev.HeadSize; p++ {
		gates := s.executableAt(p)
		d := 0
		if cur >= 0 {
			d = p - cur
			if d < 0 {
				d = -d
			}
		}
		if len(gates) > len(bestGates) ||
			(len(gates) == len(bestGates) && len(gates) > 0 && d < bestDist) {
			bestPos, bestGates, bestDist = p, gates, d
		}
	}
	return bestPos, bestGates
}

func (s *refScheduler) executableAt(p int) []int {
	local := s.scratch
	copy(local, s.ptr)
	var out []int
	hi := p + s.dev.HeadSize - 1
	for {
		progressed := false
		for q := p; q <= hi && q < s.dev.NumIons; q++ {
			for local[q] < len(s.lists[q]) {
				gi := s.lists[q][local[q]]
				g := s.c.Gate(gi)
				ready := true
				for j, oq := range g.Qubits {
					if oq < p || oq > hi || local[oq] != s.listPos[gi][j] {
						ready = false
						break
					}
				}
				if !ready {
					break
				}
				for _, oq := range g.Qubits {
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

func (s *refScheduler) commit(gates []int) {
	for _, gi := range gates {
		for _, q := range s.c.Gate(gi).Qubits {
			s.ptr[q]++
		}
	}
	s.remaining -= len(gates)
}

// refTape is Algorithm 2 on the reference scheduler. Inputs are assumed
// valid (the differential tests run Tape first, which checks them).
func refTape(c *circuit.Circuit, dev device.TILT) *Schedule {
	s := newRefScheduler(c, dev)
	sched := &Schedule{}
	cur := -1
	for s.remaining > 0 {
		pos, gates := s.bestPosition(cur)
		if len(gates) == 0 {
			panic("reference: no executable gates")
		}
		s.commit(gates)
		sched.Steps = append(sched.Steps, Step{Pos: pos, Gates: gates})
		if cur >= 0 {
			sched.Dist += abs(pos - cur)
		}
		cur = pos
	}
	sched.Moves = len(sched.Steps)
	return sched
}

// refSweep is the bouncing sweep baseline on the reference scheduler.
func refSweep(c *circuit.Circuit, dev device.TILT) *Schedule {
	s := newRefScheduler(c, dev)
	sched := &Schedule{}
	stops := dev.NumIons - dev.HeadSize + 1
	cur, idx, dir, stalls := -1, 0, 1, 0
	for s.remaining > 0 {
		p := idx
		gates := s.executableAt(p)
		if len(gates) > 0 {
			s.commit(gates)
			if p != cur {
				sched.Steps = append(sched.Steps, Step{Pos: p, Gates: gates})
				if cur >= 0 {
					sched.Dist += abs(p - cur)
				}
				cur = p
			} else {
				last := &sched.Steps[len(sched.Steps)-1]
				last.Gates = append(last.Gates, gates...)
			}
			stalls = 0
		} else if stalls++; stalls > 2*stops {
			panic("reference: sweep stalled")
		}
		if idx+dir < 0 || idx+dir >= stops {
			dir = -dir
		}
		idx += dir
		if stops == 1 {
			idx = 0
		}
	}
	sched.Moves = len(sched.Steps)
	return sched
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// diffSchedules reports the first difference between two schedules: the
// step count, a step's position or gate order, Moves, or Dist.
func diffSchedules(got, want *Schedule) error {
	if len(got.Steps) != len(want.Steps) {
		return fmt.Errorf("%d steps, reference %d", len(got.Steps), len(want.Steps))
	}
	for i := range got.Steps {
		g, w := got.Steps[i], want.Steps[i]
		if g.Pos != w.Pos || !reflect.DeepEqual(g.Gates, w.Gates) {
			return fmt.Errorf("step %d: pos %d gates %v, reference pos %d gates %v", i, g.Pos, g.Gates, w.Pos, w.Gates)
		}
	}
	if got.Moves != want.Moves || got.Dist != want.Dist {
		return fmt.Errorf("moves/dist %d/%d, reference %d/%d", got.Moves, got.Dist, want.Moves, want.Dist)
	}
	return nil
}

// checkAgainstReference schedules phys with Tape and Sweep and requires
// both to match the reference schedulers step for step and to validate.
func checkAgainstReference(t *testing.T, label string, phys *circuit.Circuit, dev device.TILT) {
	t.Helper()
	ctx := context.Background()
	for _, sc := range []struct {
		name string
		run  func(context.Context, *circuit.Circuit, device.TILT) (*Schedule, error)
		ref  func(*circuit.Circuit, device.TILT) *Schedule
	}{{"Tape", Tape, refTape}, {"Sweep", Sweep, refSweep}} {
		got, err := sc.run(ctx, phys, dev)
		if err != nil {
			t.Fatalf("%s %s: %v", label, sc.name, err)
		}
		if err := got.Validate(phys, dev); err != nil {
			t.Fatalf("%s %s: %v", label, sc.name, err)
		}
		if err := diffSchedules(got, sc.ref(phys, dev)); err != nil {
			t.Fatalf("%s %s differs from the reference: %v", label, sc.name, err)
		}
	}
}

// differentialCorpus is the workloads corpus plus seeded random circuits,
// each lowered to the native gate set.
func differentialCorpus() []workloads.Benchmark {
	corpus := append(workloads.All(), workloads.ShortDistanceSuite()...)
	corpus = append(corpus, workloads.GHZ(24), workloads.QFTN(20))
	for seed := int64(1); seed <= 6; seed++ {
		corpus = append(corpus, workloads.Random(16+int(seed)*4, 40, seed))
	}
	for i := range corpus {
		corpus[i].Circuit = decompose.ToNative(corpus[i].Circuit)
	}
	return corpus
}

// TestTapeAndSweepMatchReference pins Tape and Sweep to the full-rescan
// reference scheduler on routed workloads at head sizes 4, 8 and 16 and
// several MaxSwapLen values.
func TestTapeAndSweepMatchReference(t *testing.T) {
	for _, bm := range differentialCorpus() {
		n := bm.Circuit.NumQubits()
		for _, head := range []int{4, 8, 16} {
			dev := device.TILT{NumIons: n, HeadSize: head}
			if head > n {
				continue
			}
			m0, err := mapping.Initial(bm.Circuit, n, mapping.ProgramOrderPlacement)
			if err != nil {
				t.Fatal(err)
			}
			for _, msl := range []int{0, 1, head / 2} {
				r, err := (swapins.LinQ{}).Insert(context.Background(), bm.Circuit, m0, dev, swapins.Options{MaxSwapLen: msl})
				if err != nil {
					t.Fatal(err)
				}
				checkAgainstReference(t, fmt.Sprintf("%s head=%d maxswaplen=%d", bm.Name, head, msl), r.Physical, dev)
			}
		}
	}
}
