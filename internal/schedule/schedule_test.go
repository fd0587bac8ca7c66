package schedule

import (
	"context"
	"errors"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/mapping"
	"repro/internal/swapins"
	"repro/internal/workloads"
)

func TestSingleWindowCircuitTakesOneMove(t *testing.T) {
	dev := device.TILT{NumIons: 16, HeadSize: 8}
	c := circuit.New(16)
	c.ApplyH(0)
	c.ApplyCNOT(0, 1)
	c.ApplyCNOT(2, 3)
	s, err := Tape(context.Background(), c, dev)
	if err != nil {
		t.Fatal(err)
	}
	if s.Moves != 1 {
		t.Errorf("Moves = %d, want 1 (all gates fit one window)", s.Moves)
	}
	if s.Dist != 0 {
		t.Errorf("Dist = %d, want 0", s.Dist)
	}
	if err := s.Validate(c, dev); err != nil {
		t.Fatal(err)
	}
}

func TestBVStyleSweepMoves(t *testing.T) {
	// Independent 1q gates spread across 64 ions under a 16-ion head need
	// exactly 64/16 = 4 placements — the Table III BV shape.
	dev := device.TILT{NumIons: 64, HeadSize: 16}
	c := circuit.New(64)
	for q := 0; q < 64; q++ {
		c.ApplyH(q)
	}
	s, err := Tape(context.Background(), c, dev)
	if err != nil {
		t.Fatal(err)
	}
	if s.Moves != 4 {
		t.Errorf("Moves = %d, want 4", s.Moves)
	}
	if err := s.Validate(c, dev); err != nil {
		t.Fatal(err)
	}
	// And with a 32-ion head, 2 placements.
	dev32 := device.TILT{NumIons: 64, HeadSize: 32}
	s32, err := Tape(context.Background(), c, dev32)
	if err != nil {
		t.Fatal(err)
	}
	if s32.Moves != 2 {
		t.Errorf("head 32: Moves = %d, want 2", s32.Moves)
	}
}

func TestRejectsOversizedGate(t *testing.T) {
	dev := device.TILT{NumIons: 16, HeadSize: 4}
	c := circuit.New(16)
	c.ApplyCNOT(0, 10)
	if _, err := Tape(context.Background(), c, dev); err == nil {
		t.Error("gate wider than head should be rejected")
	}
}

func TestRejectsTernaryGate(t *testing.T) {
	dev := device.TILT{NumIons: 8, HeadSize: 4}
	c := circuit.New(8)
	c.ApplyCCX(0, 1, 2)
	if _, err := Tape(context.Background(), c, dev); err == nil {
		t.Error("3-qubit gate should be rejected")
	}
}

func TestRejectsWideCircuit(t *testing.T) {
	dev := device.TILT{NumIons: 4, HeadSize: 2}
	c := circuit.New(8)
	if _, err := Tape(context.Background(), c, dev); err == nil {
		t.Error("circuit wider than chain should be rejected")
	}
}

func TestDependencyOrderAcrossWindows(t *testing.T) {
	// CNOT(0,1) must precede CNOT(1,2) even though a greedy window at the
	// right end could otherwise grab the latter first.
	dev := device.TILT{NumIons: 12, HeadSize: 4}
	c := circuit.New(12)
	c.ApplyCNOT(0, 1)
	c.ApplyCNOT(1, 2)
	c.ApplyCNOT(9, 11)
	s, err := Tape(context.Background(), c, dev)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(c, dev); err != nil {
		t.Fatal(err)
	}
}

func TestGreedyPrefersDenserWindow(t *testing.T) {
	// Three gates clustered at the right, one at the left: the first
	// placement should grab the cluster.
	dev := device.TILT{NumIons: 12, HeadSize: 4}
	c := circuit.New(12)
	c.ApplyCNOT(0, 1)
	c.ApplyCNOT(8, 9)
	c.ApplyCNOT(10, 11)
	c.ApplyCNOT(9, 10)
	s, err := Tape(context.Background(), c, dev)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Steps[0].Gates) != 3 {
		t.Errorf("first step executed %d gates, want 3 (the dense cluster)",
			len(s.Steps[0].Gates))
	}
	if s.Moves != 2 {
		t.Errorf("Moves = %d, want 2", s.Moves)
	}
}

func TestDistAccumulatesTravel(t *testing.T) {
	dev := device.TILT{NumIons: 12, HeadSize: 4}
	c := circuit.New(12)
	c.ApplyCNOT(0, 1)
	c.ApplyCNOT(8, 11)
	s, err := Tape(context.Background(), c, dev)
	if err != nil {
		t.Fatal(err)
	}
	if s.Moves != 2 {
		t.Fatalf("Moves = %d, want 2", s.Moves)
	}
	want := s.Steps[1].Pos - s.Steps[0].Pos
	if want < 0 {
		want = -want
	}
	if s.Dist != want {
		t.Errorf("Dist = %d, want %d", s.Dist, want)
	}
}

func TestScheduleCoversSwappedWorkload(t *testing.T) {
	// End to end with swap insertion: a QFT on a small device.
	bm := workloads.QFTN(10)
	dev := device.TILT{NumIons: 10, HeadSize: 4}
	r, err := (swapins.LinQ{}).Insert(context.Background(), bm.Circuit, mapping.Identity(10), dev, swapins.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Tape(context.Background(), r.Physical, dev)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(r.Physical, dev); err != nil {
		t.Fatal(err)
	}
	if s.Moves < 2 {
		t.Errorf("QFT-10 on head 4 finished in %d moves; expected several", s.Moves)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	dev := device.TILT{NumIons: 8, HeadSize: 4}
	c := circuit.New(8)
	c.ApplyCNOT(0, 1)
	c.ApplyCNOT(1, 2)
	s, err := Tape(context.Background(), c, dev)
	if err != nil {
		t.Fatal(err)
	}
	// Duplicate a gate.
	bad := &Schedule{Steps: []Step{{Pos: 0, Gates: []int{0, 0}}}}
	if err := bad.Validate(c, dev); err == nil {
		t.Error("duplicate gate not caught")
	}
	// Missing gate.
	bad = &Schedule{Steps: []Step{{Pos: 0, Gates: []int{0}}}}
	if err := bad.Validate(c, dev); err == nil {
		t.Error("missing gate not caught")
	}
	// Out-of-window gate.
	bad = &Schedule{Steps: []Step{{Pos: 4, Gates: []int{0, 1}}}}
	if err := bad.Validate(c, dev); err == nil {
		t.Error("out-of-window gate not caught")
	}
	// Order violation.
	bad = &Schedule{Steps: []Step{{Pos: 0, Gates: []int{1, 0}}}}
	if err := bad.Validate(c, dev); err == nil {
		t.Error("order violation not caught")
	}
	// Bad position.
	bad = &Schedule{Steps: []Step{{Pos: 99, Gates: []int{0, 1}}}}
	if err := bad.Validate(c, dev); err == nil {
		t.Error("bad position not caught")
	}
	// A qubit past the chain is outside every window: an error, not an
	// index panic.
	wide := circuit.New(10)
	wide.ApplyH(9)
	bad = &Schedule{Steps: []Step{{Pos: 0, Gates: []int{0}}}}
	if err := bad.Validate(wide, dev); err == nil {
		t.Error("qubit past the chain not caught")
	}
	_ = s
}

func TestPropertyScheduleAlwaysValid(t *testing.T) {
	f := func(seed int64, headRaw uint8) bool {
		n := 12
		head := 3 + int(headRaw)%4
		dev := device.TILT{NumIons: n, HeadSize: head}
		bm := workloads.Random(n, 20, seed)
		r, err := (swapins.LinQ{}).Insert(context.Background(), bm.Circuit, mapping.Identity(n), dev, swapins.Options{})
		if err != nil {
			return false
		}
		s, err := Tape(context.Background(), r.Physical, dev)
		if err != nil {
			return false
		}
		return s.Validate(r.Physical, dev) == nil &&
			s.Moves == len(s.Steps) && s.Dist >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestEmptyCircuitSchedulesNoSteps(t *testing.T) {
	dev := device.TILT{NumIons: 8, HeadSize: 4}
	c := circuit.New(8)
	s, err := Tape(context.Background(), c, dev)
	if err != nil {
		t.Fatal(err)
	}
	if s.Moves != 0 || len(s.Steps) != 0 {
		t.Errorf("empty circuit: moves=%d steps=%d, want 0/0", s.Moves, len(s.Steps))
	}
}

func TestTapePreCancelledContextReturnsPromptly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	bm, err := workloads.ByName("BV")
	if err != nil {
		t.Fatal(err)
	}
	dev := device.TILT{NumIons: bm.Qubits(), HeadSize: 16}
	r, err := (swapins.LinQ{}).Insert(context.Background(), bm.Circuit, mapping.Identity(dev.NumIons), dev, swapins.Options{})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := Tape(ctx, r.Physical, dev); !errors.Is(err, context.Canceled) {
		t.Errorf("Tape err = %v, want context.Canceled", err)
	}
	if _, err := Sweep(ctx, r.Physical, dev); !errors.Is(err, context.Canceled) {
		t.Errorf("Sweep err = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("cancelled scheduling took %v, want prompt return", d)
	}
}
