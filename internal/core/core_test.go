package core

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/mapping"
	"repro/internal/noise"
	"repro/internal/pipeline"
	"repro/internal/qsim"
	"repro/internal/sim"
	"repro/internal/swapins"
	"repro/internal/workloads"
)

func smallCfg(n, head int) Config {
	return Config{
		Device:    device.TILT{NumIons: n, HeadSize: head},
		Placement: mapping.GreedyPlacement,
	}
}

// compileAndSimulate compiles with the stock passes and scores the result.
func compileAndSimulate(ctx context.Context, c *circuit.Circuit, cfg Config) (*CompileResult, *sim.Result, error) {
	cr, err := CompileWith(ctx, c, cfg, nil, nil)
	if err != nil {
		return nil, nil, err
	}
	sr, err := cr.Simulate(ctx, cfg)
	return cr, sr, err
}

func TestCompileProducesValidProgram(t *testing.T) {
	bm := workloads.QFTN(12)
	cfg := smallCfg(12, 4)
	cr, err := CompileWith(context.Background(), bm.Circuit, cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := cr.Schedule.Validate(cr.Physical, cfg.Device); err != nil {
		t.Fatalf("schedule invalid: %v", err)
	}
	for i, g := range cr.Physical.Gates() {
		if g.IsTwoQubit() && g.Distance() > cfg.Device.MaxGateDistance() {
			t.Fatalf("gate %d spans %d > limit", i, g.Distance())
		}
		if g.Kind != circuit.Measure && g.Kind != circuit.SWAP && !g.Kind.Native() {
			t.Fatalf("gate %d kind %v not native", i, g.Kind)
		}
	}
	if cr.Moves() < 1 || cr.DistSpacings() < 0 {
		t.Errorf("moves=%d dist=%d", cr.Moves(), cr.DistSpacings())
	}
	if cr.PassTime(pipeline.NameInsertSwaps) < 0 || cr.PassTime(pipeline.NameSchedule) < 0 {
		t.Error("negative compile timings")
	}
}

func TestCompiledSemanticsPreserved(t *testing.T) {
	// The physical circuit, after restoring the final permutation, must be
	// unitarily equivalent to the native circuit under the initial mapping.
	bm := workloads.Random(7, 8, 3)
	cfg := smallCfg(7, 3)
	cr, err := CompileWith(context.Background(), bm.Circuit, cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := cr.Physical.Clone()
	fin := cr.FinalMapping.Clone()
	for p := 0; p < fin.Len(); p++ {
		want := cr.InitialMapping.Logical(p)
		if fin.Logical(p) == want {
			continue
		}
		p2 := fin.Phys(want)
		out.MustAdd(circuit.SWAP, 0, p, p2)
		fin.SwapPhysical(p, p2)
	}
	if !qsim.EquivalentUnderPermutation(cr.Native, out, cr.InitialMapping.LogicalToPhysical(), 3, 77) {
		t.Fatal("compiled program is not unitarily equivalent to the source")
	}
}

func TestRunProducesFiniteMetrics(t *testing.T) {
	bm := workloads.QAOAN(16, 2, 1)
	cfg := smallCfg(16, 8)
	cr, sr, err := compileAndSimulate(context.Background(), bm.Circuit, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sr.SuccessRate <= 0 || sr.SuccessRate > 1 {
		t.Errorf("success = %g", sr.SuccessRate)
	}
	if sr.Moves != cr.Moves() {
		t.Errorf("sim moves %d != schedule moves %d", sr.Moves, cr.Moves())
	}
	if sr.ExecTimeUs <= 0 {
		t.Errorf("exec time = %g", sr.ExecTimeUs)
	}
}

func TestRunIdealBeatsTILT(t *testing.T) {
	bm := workloads.QFTN(16)
	cfg := smallCfg(16, 4)
	_, tiltRes, err := compileAndSimulate(context.Background(), bm.Circuit, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, mapped, err := PlaceIdeal(bm.Circuit, cfg.Device.NumIons)
	if err != nil {
		t.Fatal(err)
	}
	idealRes, err := sim.SimulateIdeal(context.Background(), mapped,
		device.IdealTI{NumIons: cfg.Device.NumIons}, cfg.NoiseParams())
	if err != nil {
		t.Fatal(err)
	}
	if idealRes.LogSuccess <= tiltRes.LogSuccess {
		t.Errorf("ideal %g should beat TILT %g", idealRes.LogSuccess, tiltRes.LogSuccess)
	}
}

func TestLargerHeadImprovesSuccess(t *testing.T) {
	// Fig. 8: a wider execution zone reduces swaps and moves, so success
	// must not degrade.
	bm := workloads.QFTN(16)
	_, small, err := compileAndSimulate(context.Background(), bm.Circuit, smallCfg(16, 4))
	if err != nil {
		t.Fatal(err)
	}
	_, large, err := compileAndSimulate(context.Background(), bm.Circuit, smallCfg(16, 8))
	if err != nil {
		t.Fatal(err)
	}
	if large.LogSuccess < small.LogSuccess {
		t.Errorf("head 8 (%g) should not lose to head 4 (%g)",
			large.LogSuccess, small.LogSuccess)
	}
}

func TestStochasticBaselinePluggable(t *testing.T) {
	bm := workloads.QFTN(10)
	cfg := smallCfg(10, 4)
	cfg.Inserter = swapins.Stochastic{Trials: 4, Seed: 1}
	cr, sr, err := compileAndSimulate(context.Background(), bm.Circuit, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cr.SwapCount == 0 {
		t.Error("QFT-10 on head 4 should need swaps")
	}
	if sr.SuccessRate < 0 || sr.SuccessRate > 1 {
		t.Errorf("success = %g", sr.SuccessRate)
	}
}

func TestCustomNoiseParamsHonored(t *testing.T) {
	bm := workloads.GHZ(8)
	cfg := smallCfg(8, 4)
	noiseless := noise.Default()
	noiseless.Gamma = 0
	noiseless.Epsilon = 0
	noiseless.K0 = 0
	noiseless.OneQubitError = 0
	cfg.Noise = &noiseless
	_, sr, err := compileAndSimulate(context.Background(), bm.Circuit, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sr.SuccessRate-1) > 1e-12 {
		t.Errorf("noiseless success = %g, want 1", sr.SuccessRate)
	}
}

func TestCompileRejectsWideCircuit(t *testing.T) {
	bm := workloads.GHZ(16)
	if _, err := CompileWith(context.Background(), bm.Circuit, smallCfg(8, 4), nil, nil); err == nil {
		t.Error("circuit wider than device should fail")
	}
}

func TestCompileRejectsInvalidDevice(t *testing.T) {
	bm := workloads.GHZ(4)
	if _, err := CompileWith(context.Background(), bm.Circuit, Config{Device: device.TILT{NumIons: 4, HeadSize: 1}}, nil, nil); err == nil {
		t.Error("invalid device should fail")
	}
}

func TestOpposingRatioZeroSafe(t *testing.T) {
	bm := workloads.GHZ(8)
	cr, err := CompileWith(context.Background(), bm.Circuit, smallCfg(8, 8), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cr.SwapCount != 0 || cr.OpposingRatio() != 0 {
		t.Errorf("GHZ under full head needs no swaps: %d, ratio %g",
			cr.SwapCount, cr.OpposingRatio())
	}
}

func TestPropertyPipelineSoundOnRandomCircuits(t *testing.T) {
	f := func(seed int64, headRaw uint8) bool {
		n := 10
		head := 3 + int(headRaw)%6
		bm := workloads.Random(n, 12, seed)
		cfg := smallCfg(n, head)
		cr, sr, err := compileAndSimulate(context.Background(), bm.Circuit, cfg)
		if err != nil {
			return false
		}
		if cr.Schedule.Validate(cr.Physical, cfg.Device) != nil {
			return false
		}
		return sr.SuccessRate >= 0 && sr.SuccessRate <= 1 && sr.LogSuccess <= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
