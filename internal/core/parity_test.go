package core

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/circuit"
	"repro/internal/decompose"
	"repro/internal/device"
	"repro/internal/mapping"
	"repro/internal/optimize"
	"repro/internal/schedule"
	"repro/internal/swapins"
	"repro/internal/workloads"
)

func deviceFor(n, head int) device.TILT { return device.TILT{NumIons: n, HeadSize: head} }

// monolithicCompile replicates the pre-pipeline Compile exactly: straight-line
// decompose → (optimize) → place → insert swaps → schedule with no pass
// framework. The parity test pins the pipeline-backed CompileWith to it
// byte-for-byte.
func monolithicCompile(t *testing.T, c *circuit.Circuit, cfg Config) *CompileResult {
	t.Helper()
	ctx := context.Background()
	native := decompose.ToNative(c)
	var optStats optimize.Stats
	if cfg.Optimize {
		native, optStats = optimize.Run(native)
	}
	m0, err := mapping.Initial(native, cfg.Device.NumIons, cfg.Placement)
	if err != nil {
		t.Fatal(err)
	}
	ins, err := cfg.inserter().Insert(ctx, native, m0, cfg.Device, cfg.Swap)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := schedule.Tape(ctx, ins.Physical, cfg.Device)
	if err != nil {
		t.Fatal(err)
	}
	return &CompileResult{
		Native:         native,
		Physical:       ins.Physical,
		Schedule:       sched,
		SwapCount:      ins.SwapCount,
		OpposingSwaps:  ins.OpposingSwaps,
		InitialMapping: ins.InitialMapping,
		FinalMapping:   ins.FinalMapping,
		OptStats:       optStats,
	}
}

// assertCompileParity compares everything except wall-clock timings.
func assertCompileParity(t *testing.T, label string, got, want *CompileResult) {
	t.Helper()
	if got.Native.String() != want.Native.String() {
		t.Errorf("%s: native circuits differ", label)
	}
	if got.Physical.String() != want.Physical.String() {
		t.Errorf("%s: physical circuits differ", label)
	}
	if !reflect.DeepEqual(got.Schedule, want.Schedule) {
		t.Errorf("%s: schedules differ (moves %d vs %d, dist %d vs %d)",
			label, got.Schedule.Moves, want.Schedule.Moves, got.Schedule.Dist, want.Schedule.Dist)
	}
	if got.SwapCount != want.SwapCount || got.OpposingSwaps != want.OpposingSwaps {
		t.Errorf("%s: swaps %d/%d vs %d/%d",
			label, got.SwapCount, got.OpposingSwaps, want.SwapCount, want.OpposingSwaps)
	}
	if !reflect.DeepEqual(got.InitialMapping, want.InitialMapping) {
		t.Errorf("%s: initial mappings differ", label)
	}
	if !reflect.DeepEqual(got.FinalMapping, want.FinalMapping) {
		t.Errorf("%s: final mappings differ", label)
	}
	if got.OptStats != want.OptStats {
		t.Errorf("%s: opt stats %+v vs %+v", label, got.OptStats, want.OptStats)
	}
}

// TestPipelineParityAllBenchmarks pins the pipeline-backed CompileWith to the
// pre-refactor monolithic compiler on every Table II benchmark: identical
// swaps, moves, schedules, and mappings.
func TestPipelineParityAllBenchmarks(t *testing.T) {
	for _, bm := range workloads.All() {
		cfg := Config{
			Device:    deviceFor(bm.Qubits(), 16),
			Placement: mapping.ProgramOrderPlacement,
			Inserter:  swapins.LinQ{},
		}
		got, err := CompileWith(context.Background(), bm.Circuit, cfg, nil, nil)
		if err != nil {
			t.Fatalf("%s: %v", bm.Name, err)
		}
		assertCompileParity(t, bm.Name, got, monolithicCompile(t, bm.Circuit, cfg))
		if len(got.Timings) != 4 {
			t.Errorf("%s: %d pass timings, want 4", bm.Name, len(got.Timings))
		}
	}
}

// TestPipelineParityVariants re-checks parity off the default path: peephole
// optimization on, the stochastic inserter, and greedy placement.
func TestPipelineParityVariants(t *testing.T) {
	bm, err := workloads.ByName("BV")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"optimize", Config{Device: deviceFor(bm.Qubits(), 16), Placement: mapping.ProgramOrderPlacement, Optimize: true}},
		{"stochastic", Config{Device: deviceFor(bm.Qubits(), 16), Inserter: swapins.Stochastic{Trials: 4, Seed: 7}}},
		{"greedy", Config{Device: deviceFor(bm.Qubits(), 16), Placement: mapping.GreedyPlacement}},
	}
	for _, tc := range cases {
		got, err := CompileWith(context.Background(), bm.Circuit, tc.cfg, nil, nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		assertCompileParity(t, tc.name, got, monolithicCompile(t, bm.Circuit, tc.cfg))
	}
}

// TestCompileWithIncompletePassListErrors verifies a pass list that drops a
// required phase fails with an error naming the missing pass.
func TestCompileWithIncompletePassListErrors(t *testing.T) {
	bm := workloads.GHZ(8)
	cfg := Config{Device: deviceFor(8, 4)}
	passes := DefaultPasses(cfg)
	_, err := CompileWith(context.Background(), bm.Circuit, cfg, passes[:len(passes)-1], nil)
	if err == nil {
		t.Fatal("pass list without schedule compiled")
	}
}

// TestCompilePreCancelledContext verifies prompt return before any pass runs.
func TestCompilePreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	bm := workloads.GHZ(8)
	if _, err := CompileWith(ctx, bm.Circuit, Config{Device: deviceFor(8, 4)}, nil, nil); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
