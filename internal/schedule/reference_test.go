package schedule

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
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

// routed is a corpus circuit after LinQ swap insertion for its device.
type routed struct {
	label string
	phys  *circuit.Circuit
	dev   device.TILT
}

// routedCorpus is differentialCorpus routed by LinQ as
// TestTapeAndSweepMatchReference routes it: head sizes 4, 8 and 16, and
// MaxSwapLen 1, half the head and the default.
func routedCorpus(t *testing.T) []routed {
	t.Helper()
	var out []routed
	for _, bm := range differentialCorpus() {
		n := bm.Circuit.NumQubits()
		for _, head := range []int{4, 8, 16} {
			if head > n {
				continue
			}
			dev := device.TILT{NumIons: n, HeadSize: head}
			m0, err := mapping.Initial(bm.Circuit, n, mapping.ProgramOrderPlacement)
			if err != nil {
				t.Fatal(err)
			}
			for _, msl := range []int{0, 1, head / 2} {
				r, err := (swapins.LinQ{}).Insert(context.Background(), bm.Circuit, m0, dev, swapins.Options{MaxSwapLen: msl})
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, routed{fmt.Sprintf("%s head=%d maxswaplen=%d", bm.Name, head, msl), r.Physical, dev})
			}
		}
	}
	return out
}

// TestWindowCountsMatchProbe runs Tape's loop on the routed corpus and
// requires, before every step, each head position's incrementally kept
// count to equal the size of the set the ordered probe finds there.
func TestWindowCountsMatchProbe(t *testing.T) {
	for _, rc := range routedCorpus(t) {
		s := newScheduler(rc.phys, rc.dev)
		s.initWindows()
		var buf []int
		cur := -1
		for step := 0; s.remaining > 0; step++ {
			for p, n := range s.count {
				if buf = s.probe(p, buf[:0]); len(buf) != n {
					t.Fatalf("%s step %d: position %d counts %d, probe finds %d", rc.label, step, p, n, len(buf))
				}
			}
			cur = s.bestPosition(cur)
			from := len(s.out)
			s.out = s.probe(cur, s.out)
			s.advance(s.commit(s.since(from)))
		}
	}
}

// refValidate is Schedule.Validate with the per-qubit order checked against
// each qubit's gate list: the oracle for the list-free order check.
func refValidate(sched *Schedule, c *circuit.Circuit, dev device.TILT) error {
	seen := make([]bool, c.Len())
	listIdx := make([]int, dev.NumIons)
	lists := make([][]int, dev.NumIons)
	for i, g := range c.Gates() {
		for _, q := range g.Qubits {
			lists[q] = append(lists[q], i)
		}
	}
	for si, st := range sched.Steps {
		if st.Pos < 0 || st.Pos > dev.NumIons-dev.HeadSize {
			return fmt.Errorf("step %d position %d out of range", si, st.Pos)
		}
		for _, gi := range st.Gates {
			if gi < 0 || gi >= c.Len() {
				return fmt.Errorf("step %d references gate %d", si, gi)
			}
			if seen[gi] {
				return fmt.Errorf("gate %d scheduled twice", gi)
			}
			seen[gi] = true
			for _, q := range c.Gate(gi).Qubits {
				if q < st.Pos || q > st.Pos+dev.HeadSize-1 {
					return fmt.Errorf("step %d gate %d qubit %d outside window", si, gi, q)
				}
				if lists[q][listIdx[q]] != gi {
					return fmt.Errorf("gate %d violates program order on qubit %d", gi, q)
				}
				listIdx[q]++
			}
		}
	}
	for gi, ok := range seen {
		if !ok {
			return fmt.Errorf("gate %d never scheduled", gi)
		}
	}
	return nil
}

// cloneSchedule deep-copies a schedule so a mutation cannot reach the
// original's shared gate buffer.
func cloneSchedule(s *Schedule) *Schedule {
	out := &Schedule{Moves: s.Moves, Dist: s.Dist, Steps: make([]Step, len(s.Steps))}
	for i, st := range s.Steps {
		out.Steps[i] = Step{Pos: st.Pos, Gates: slices.Clone(st.Gates)}
	}
	return out
}

// TestValidateMatchesListValidator mutates Tape's schedules of the routed
// corpus — two gates swapped across steps, a gate duplicated, a gate
// dropped, a window shifted by one, a gate index out of range — and
// requires Validate to accept exactly what the list-based validator
// accepts. Duplicates, drops and out-of-range indices must be rejected.
func TestValidateMatchesListValidator(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	type mutation struct {
		name      string
		mustFail  bool
		transform func(s *Schedule, nGates int)
	}
	pick := func(s *Schedule) (int, int) {
		si := rng.Intn(len(s.Steps))
		return si, rng.Intn(len(s.Steps[si].Gates))
	}
	mutations := []mutation{
		{"swap across steps", false, func(s *Schedule, _ int) {
			si, i := pick(s)
			sj, j := pick(s)
			s.Steps[si].Gates[i], s.Steps[sj].Gates[j] = s.Steps[sj].Gates[j], s.Steps[si].Gates[i]
		}},
		{"duplicate", true, func(s *Schedule, _ int) {
			si, i := pick(s)
			sj, _ := pick(s)
			s.Steps[sj].Gates = append(s.Steps[sj].Gates, s.Steps[si].Gates[i])
		}},
		{"drop", true, func(s *Schedule, _ int) {
			si, i := pick(s)
			s.Steps[si].Gates = slices.Delete(s.Steps[si].Gates, i, i+1)
		}},
		{"shift window", false, func(s *Schedule, _ int) {
			si, _ := pick(s)
			s.Steps[si].Pos += 1 - 2*rng.Intn(2)
		}},
		{"out of range", true, func(s *Schedule, n int) {
			si, i := pick(s)
			s.Steps[si].Gates[i] = []int{-1, n}[rng.Intn(2)]
		}},
	}
	rejected := map[string]int{}
	for _, rc := range routedCorpus(t) {
		sched, err := Tape(context.Background(), rc.phys, rc.dev)
		if err != nil {
			t.Fatal(err)
		}
		if len(sched.Steps) == 0 {
			continue
		}
		for _, mu := range mutations {
			for rep := 0; rep < 8; rep++ {
				bad := cloneSchedule(sched)
				mu.transform(bad, rc.phys.Len())
				got, want := bad.Validate(rc.phys, rc.dev), refValidate(bad, rc.phys, rc.dev)
				if (got == nil) != (want == nil) {
					t.Fatalf("%s, %s: Validate says %v, list validator %v", rc.label, mu.name, got, want)
				}
				if mu.mustFail && got == nil {
					t.Fatalf("%s, %s: accepted", rc.label, mu.name)
				}
				if got != nil {
					rejected[mu.name]++
				}
			}
		}
	}
	for _, mu := range mutations {
		if rejected[mu.name] == 0 {
			t.Errorf("%s: no mutated schedule was rejected", mu.name)
		}
	}
}
