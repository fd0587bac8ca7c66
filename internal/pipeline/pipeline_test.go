package pipeline

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/mapping"
	"repro/internal/swapins"
	"repro/internal/workloads"
)

func stockPasses() []Pass {
	return []Pass{
		Decompose(),
		Place(mapping.ProgramOrderPlacement),
		InsertSwaps(swapins.LinQ{}, swapins.Options{}),
		ScheduleTape(),
	}
}

func ghzState(n, head int) *PassState {
	bm := workloads.GHZ(n)
	return NewState(bm.Circuit, device.TILT{NumIons: n, HeadSize: head})
}

func TestStockPipelineCompletesAndTimes(t *testing.T) {
	st := ghzState(24, 8)
	timings, err := (&Pipeline{Passes: stockPasses()}).Run(context.Background(), st)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Validate(); err != nil {
		t.Fatalf("incomplete state after stock pipeline: %v", err)
	}
	wantOrder := []string{NameDecompose, NamePlace, NameInsertSwaps, NameSchedule}
	if len(timings) != len(wantOrder) {
		t.Fatalf("got %d timing records, want %d", len(timings), len(wantOrder))
	}
	for i, tt := range timings {
		if tt.Pass != wantOrder[i] {
			t.Errorf("timing %d = %q, want %q", i, tt.Pass, wantOrder[i])
		}
		if tt.Index != i {
			t.Errorf("timing %d index = %d", i, tt.Index)
		}
		if tt.Wall < 0 {
			t.Errorf("timing %d wall = %v", i, tt.Wall)
		}
	}
	// Decompose rewrites the input into more native gates; insert-swaps can
	// only add gates.
	if d, _ := Timing(timings, NameDecompose); d.GateDelta() <= 0 {
		t.Errorf("decompose gate delta = %d, want > 0", d.GateDelta())
	}
	if s, _ := Timing(timings, NameInsertSwaps); s.GateDelta() < 0 {
		t.Errorf("insert-swaps gate delta = %d, want >= 0", s.GateDelta())
	}
}

func TestObserverSeesEveryPassInOrder(t *testing.T) {
	st := ghzState(12, 6)
	var started, finished []string
	obs := ObserverFuncs{
		Started: func(name string, index int) { started = append(started, name) },
		Finished: func(tt PassTiming, err error) {
			if err != nil {
				t.Errorf("pass %s finished with error: %v", tt.Pass, err)
			}
			finished = append(finished, tt.Pass)
		},
	}
	p := &Pipeline{Passes: stockPasses(), Observer: obs}
	if _, err := p.Run(context.Background(), st); err != nil {
		t.Fatal(err)
	}
	want := []string{NameDecompose, NamePlace, NameInsertSwaps, NameSchedule}
	for i, name := range want {
		if started[i] != name || finished[i] != name {
			t.Fatalf("observer order: started=%v finished=%v, want %v", started, finished, want)
		}
	}
}

func TestObserverSeesPassError(t *testing.T) {
	st := ghzState(12, 6)
	var gotErr error
	obs := ObserverFuncs{Finished: func(tt PassTiming, err error) { gotErr = err }}
	// insert-swaps without place must fail, and the observer must see it.
	p := &Pipeline{Passes: []Pass{Decompose(), InsertSwaps(nil, swapins.Options{})}, Observer: obs}
	_, err := p.Run(context.Background(), st)
	if err == nil || !strings.Contains(err.Error(), NameInsertSwaps) {
		t.Fatalf("err = %v, want insert-swaps precondition failure", err)
	}
	if gotErr == nil {
		t.Error("observer did not receive the pass error")
	}
}

func TestPreCancelledContextRunsNoPass(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	st := ghzState(12, 6)
	ran := false
	p := &Pipeline{Passes: []Pass{NewPass("probe", func(ctx context.Context, s *PassState) error {
		ran = true
		return nil
	})}}
	timings, err := p.Run(ctx, st)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran || len(timings) != 0 {
		t.Error("pass ran despite pre-cancelled context")
	}
}

func TestCancellationErrorNotWrapped(t *testing.T) {
	st := ghzState(12, 6)
	p := &Pipeline{Passes: []Pass{NewPass("cancelling", func(ctx context.Context, s *PassState) error {
		return context.Canceled
	})}}
	_, err := p.Run(context.Background(), st)
	if err != context.Canceled {
		t.Fatalf("err = %v, want bare context.Canceled", err)
	}
}

func TestMisorderedPipelineFailsWithNamedPass(t *testing.T) {
	cases := []struct {
		name   string
		passes []Pass
	}{
		{"place-before-decompose", []Pass{Place(mapping.GreedyPlacement)}},
		{"swaps-before-place", []Pass{Decompose(), InsertSwaps(nil, swapins.Options{})}},
		{"schedule-before-swaps", []Pass{Decompose(), Place(mapping.GreedyPlacement), ScheduleTape()}},
		{"optimize-before-decompose", []Pass{Optimize()}},
	}
	for _, tc := range cases {
		st := ghzState(12, 6)
		_, err := (&Pipeline{Passes: tc.passes}).Run(context.Background(), st)
		if err == nil || !strings.Contains(err.Error(), "pipeline: pass") {
			t.Errorf("%s: err = %v, want named pass error", tc.name, err)
		}
	}
}

func TestReorderedOptimizeAfterPlaceWorks(t *testing.T) {
	// Optimize operates on the native circuit, so running it after place
	// (but before insert-swaps) is a legal reordering.
	c := circuit.New(12)
	c.ApplyRZ(0.3, 0)
	c.ApplyRZ(0.4, 0)
	for q := 0; q+1 < 12; q++ {
		c.ApplyCNOT(q, q+1)
	}
	st := NewState(c, device.TILT{NumIons: 12, HeadSize: 6})
	passes := []Pass{
		Decompose(),
		Place(mapping.ProgramOrderPlacement),
		Optimize(),
		InsertSwaps(nil, swapins.Options{}),
		ScheduleTape(),
	}
	if _, err := (&Pipeline{Passes: passes}).Run(context.Background(), st); err != nil {
		t.Fatal(err)
	}
	if err := st.Validate(); err != nil {
		t.Fatal(err)
	}
	if st.OptStats.Total() == 0 {
		t.Error("reordered optimize pass eliminated nothing")
	}
}

func TestCustomPassViaNewPass(t *testing.T) {
	st := ghzState(12, 6)
	counted := -1
	passes := append(stockPasses(), NewPass("count-gates", func(ctx context.Context, s *PassState) error {
		counted = s.Physical.Len()
		return nil
	}))
	timings, err := (&Pipeline{Passes: passes}).Run(context.Background(), st)
	if err != nil {
		t.Fatal(err)
	}
	if counted != st.Physical.Len() {
		t.Errorf("custom pass saw %d gates, want %d", counted, st.Physical.Len())
	}
	if _, ok := Timing(timings, "count-gates"); !ok {
		t.Error("custom pass missing from timings")
	}
}

func TestValidateNamesMissingPhase(t *testing.T) {
	st := ghzState(12, 6)
	if err := st.Validate(); err == nil || !strings.Contains(err.Error(), NameDecompose) {
		t.Errorf("empty state Validate = %v, want missing-decompose error", err)
	}
	if _, err := (&Pipeline{Passes: []Pass{Decompose()}}).Run(context.Background(), st); err != nil {
		t.Fatal(err)
	}
	if err := st.Validate(); err == nil || !strings.Contains(err.Error(), NameInsertSwaps) {
		t.Errorf("decompose-only Validate = %v, want missing-insert-swaps error", err)
	}
}

func TestNilStateRejected(t *testing.T) {
	if _, err := (&Pipeline{}).Run(context.Background(), nil); err == nil {
		t.Error("nil state accepted")
	}
	if _, err := (&Pipeline{}).Run(context.Background(), &PassState{}); err == nil {
		t.Error("nil input circuit accepted")
	}
}
