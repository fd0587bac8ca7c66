package core

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/swapins"
	"repro/internal/workloads"
)

var stockOrder = []string{pipeline.NameDecompose, pipeline.NamePlace, pipeline.NameInsertSwaps, pipeline.NameSchedule}

func TestCompileTimesEveryPass(t *testing.T) {
	cr, err := CompileWith(context.Background(), workloads.GHZ(24).Circuit, smallCfg(24, 8))
	if err != nil {
		t.Fatal(err)
	}
	if len(cr.Timings) != len(stockOrder) {
		t.Fatalf("got %d timing records, want %d", len(cr.Timings), len(stockOrder))
	}
	for i, tt := range cr.Timings {
		if tt.Pass != stockOrder[i] || tt.Index != i || tt.Wall < 0 {
			t.Errorf("timing %d = %+v, want pass %q at index %d", i, tt, stockOrder[i], i)
		}
	}
	// Decompose rewrites the input into more native gates; insert-swaps can
	// only add gates.
	if d := cr.Timings[0].GateDelta(); d <= 0 {
		t.Errorf("decompose gate delta = %d, want > 0", d)
	}
	if d := cr.Timings[2].GateDelta(); d < 0 {
		t.Errorf("insert-swaps gate delta = %d, want >= 0", d)
	}
	if cr.PassTime(pipeline.NameOptimize) != 0 {
		t.Error("PassTime of a pass that did not run is not zero")
	}
}

// TestObserverSeesEveryPassInOrder also uses the call form
// CompileWith(ctx, c, cfg, nil, obs), whose nil entry must be skipped.
func TestObserverSeesEveryPassInOrder(t *testing.T) {
	var started, finished []string
	var records []pipeline.PassTiming
	obs := pipeline.ObserverFuncs{
		Started: func(name string, index int) {
			if index != len(started) {
				t.Errorf("pass %s started at index %d, want %d", name, index, len(started))
			}
			started = append(started, name)
		},
		Finished: func(tt pipeline.PassTiming, err error) {
			if err != nil {
				t.Errorf("pass %s finished with error: %v", tt.Pass, err)
			}
			finished = append(finished, tt.Pass)
			records = append(records, tt)
		},
	}
	cr, err := CompileWith(context.Background(), workloads.GHZ(12).Circuit, smallCfg(12, 6), nil, obs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(started, stockOrder) || !reflect.DeepEqual(finished, stockOrder) {
		t.Fatalf("observer order: started=%v finished=%v, want %v", started, finished, stockOrder)
	}
	if !reflect.DeepEqual(records, cr.Timings) {
		t.Errorf("observed records %+v differ from the result's %+v", records, cr.Timings)
	}
}

func TestObserverSeesPassError(t *testing.T) {
	cfg := smallCfg(12, 6)
	cfg.Swap = swapins.Options{MaxSwapLen: 99}
	var failed string
	var gotErr error
	obs := pipeline.ObserverFuncs{Finished: func(tt pipeline.PassTiming, err error) {
		if err != nil {
			failed, gotErr = tt.Pass, err
		}
	}}
	_, err := CompileWith(context.Background(), workloads.GHZ(12).Circuit, cfg, obs)
	const want = `pipeline: pass "insert-swaps": swapins: MaxSwapLen 99 outside `
	if err == nil || !strings.HasPrefix(err.Error(), want) {
		t.Fatalf("err = %v, want prefix %q", err, want)
	}
	if failed != pipeline.NameInsertSwaps || gotErr == nil {
		t.Errorf("observer saw error %v from pass %q, want the insert-swaps error", gotErr, failed)
	}
}

// TestPreCancelledContextRunsNoPass checks that a compile whose context is
// already cancelled starts and finishes no pass and returns no result.
func TestPreCancelledContextRunsNoPass(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var events []string
	obs := pipeline.ObserverFuncs{
		Started:  func(name string, _ int) { events = append(events, "start "+name) },
		Finished: func(tt pipeline.PassTiming, _ error) { events = append(events, "finish "+tt.Pass) },
	}
	cr, err := CompileWith(ctx, workloads.GHZ(12).Circuit, smallCfg(12, 6), obs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if cr != nil {
		t.Errorf("pre-cancelled compile returned a result with %d timing records", len(cr.Timings))
	}
	if len(events) != 0 {
		t.Errorf("pass events despite pre-cancelled context: %v", events)
	}
}

// TestCancellationErrorNotWrapped cancels the context inside a pass and
// between two passes; both come back as bare context.Canceled.
func TestCancellationErrorNotWrapped(t *testing.T) {
	for _, tc := range []struct {
		name, cancelOn string
		started        bool // cancel when cancelOn starts, not when it finishes
	}{
		{"inside insert-swaps", pipeline.NameInsertSwaps, true},
		{"after place", pipeline.NamePlace, false},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		var last string
		var lastErr error
		obs := pipeline.ObserverFuncs{
			Started: func(name string, _ int) {
				if tc.started && name == tc.cancelOn {
					cancel()
				}
			},
			Finished: func(tt pipeline.PassTiming, err error) {
				last, lastErr = tt.Pass, err
				if !tc.started && tt.Pass == tc.cancelOn {
					cancel()
				}
			},
		}
		_, err := CompileWith(ctx, workloads.QFTN(12).Circuit, smallCfg(12, 4), obs)
		cancel()
		if err != context.Canceled {
			t.Errorf("%s: err = %v, want bare context.Canceled", tc.name, err)
		}
		if last != tc.cancelOn {
			t.Errorf("%s: last finished pass %q, want %q", tc.name, last, tc.cancelOn)
		}
		if tc.started && lastErr != context.Canceled {
			t.Errorf("%s: observer saw %v, want context.Canceled", tc.name, lastErr)
		}
	}
}
