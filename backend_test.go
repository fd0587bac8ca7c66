package tilt_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	tilt "repro"
	"repro/internal/core"
	"repro/internal/decompose"
	"repro/internal/device"
	"repro/internal/mapping"
	"repro/internal/noise"
	"repro/internal/qccd"
	"repro/internal/sim"
	"repro/internal/swapins"
	"repro/internal/workloads"
	"repro/runner"
)

// standardConfig is the compiler configuration the TILT backend's defaults
// must reproduce: program-order placement, the LinQ inserter, default noise.
func standardConfig(numIons, head int) core.Config {
	return core.Config{
		Device:    device.TILT{NumIons: numIons, HeadSize: head},
		Placement: mapping.ProgramOrderPlacement,
		Inserter:  swapins.LinQ{},
	}
}

// TestTILTBackendParity pins the TILT backend to the compiler it wraps: on
// all six Table II benchmarks, it must produce identical CompileResult
// statistics and an equal LogSuccess to core.CompileWith plus Simulate under
// the standard configuration. (Wall-clock pass timings are the only fields
// allowed to differ.)
func TestTILTBackendParity(t *testing.T) {
	ctx := context.Background()
	for _, bm := range tilt.Benchmarks() {
		t.Run(bm.Name, func(t *testing.T) {
			cfg := standardConfig(bm.Qubits(), 16)
			refCr, err := core.CompileWith(ctx, bm.Circuit, cfg, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			refSr, err := refCr.Simulate(ctx, cfg)
			if err != nil {
				t.Fatal(err)
			}

			be := tilt.NewTILT(tilt.WithDevice(bm.Qubits(), 16))
			art, err := be.Compile(ctx, bm.Circuit)
			if err != nil {
				t.Fatal(err)
			}
			res, err := be.Simulate(ctx, art)
			if err != nil {
				t.Fatal(err)
			}

			cr := art.Compile
			if cr.SwapCount != refCr.SwapCount {
				t.Errorf("SwapCount %d != ref %d", cr.SwapCount, refCr.SwapCount)
			}
			if cr.OpposingSwaps != refCr.OpposingSwaps {
				t.Errorf("OpposingSwaps %d != ref %d", cr.OpposingSwaps, refCr.OpposingSwaps)
			}
			if cr.Moves() != refCr.Moves() {
				t.Errorf("Moves %d != ref %d", cr.Moves(), refCr.Moves())
			}
			if cr.DistSpacings() != refCr.DistSpacings() {
				t.Errorf("DistSpacings %d != ref %d", cr.DistSpacings(), refCr.DistSpacings())
			}
			if cr.Native.Len() != refCr.Native.Len() {
				t.Errorf("Native.Len %d != ref %d", cr.Native.Len(), refCr.Native.Len())
			}
			if cr.Physical.Len() != refCr.Physical.Len() {
				t.Errorf("Physical.Len %d != ref %d", cr.Physical.Len(), refCr.Physical.Len())
			}
			if res.LogSuccess != refSr.LogSuccess {
				t.Errorf("LogSuccess %g != ref %g", res.LogSuccess, refSr.LogSuccess)
			}
			if res.OneQubitGates != refSr.OneQubitGates ||
				res.TwoQubitGates != refSr.TwoQubitGates ||
				res.SwapGates != refSr.SwapGates {
				t.Errorf("gate census (%d,%d,%d) != ref (%d,%d,%d)",
					res.OneQubitGates, res.TwoQubitGates, res.SwapGates,
					refSr.OneQubitGates, refSr.TwoQubitGates, refSr.SwapGates)
			}
			// The unified Result must echo the compile stats it wraps.
			if res.TILT == nil || res.TILT.SwapCount != cr.SwapCount ||
				res.TILT.Moves != cr.Moves() {
				t.Errorf("Result.TILT stats do not match the artifact")
			}
		})
	}
}

// TestIdealBackendParity checks the IdealTI backend against the greedy
// placement plus the ideal-device simulator it wraps.
func TestIdealBackendParity(t *testing.T) {
	ctx := context.Background()
	bm := tilt.BenchmarkBV()
	_, mapped, err := core.PlaceIdeal(bm.Circuit, bm.Qubits())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := sim.SimulateIdeal(ctx, mapped, device.IdealTI{NumIons: bm.Qubits()}, noise.Default())
	if err != nil {
		t.Fatal(err)
	}
	res, err := tilt.Execute(ctx,
		tilt.NewIdealTI(tilt.WithDevice(bm.Qubits(), 16)), bm.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	if res.LogSuccess != ref.LogSuccess {
		t.Errorf("LogSuccess %g != ref %g", res.LogSuccess, ref.LogSuccess)
	}
	if res.TILT != nil || res.QCCD != nil {
		t.Errorf("IdealTI result carries backend-specific stats")
	}
}

// TestQCCDBackendParity checks the QCCD backend against the capacity sweep
// it wraps, on an explicit capacity list.
func TestQCCDBackendParity(t *testing.T) {
	ctx := context.Background()
	bm := tilt.BenchmarkBV()
	ref, err := qccd.RunBestCapacity(ctx, decompose.ToNative(bm.Circuit), bm.Qubits(),
		[]int{17, 33}, noise.Default())
	if err != nil {
		t.Fatal(err)
	}
	res, err := tilt.Execute(ctx,
		tilt.NewQCCD(tilt.WithDevice(bm.Qubits(), 16), tilt.WithCapacities(17, 33)), bm.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	if res.LogSuccess != ref.LogSuccess {
		t.Errorf("LogSuccess %g != ref %g", res.LogSuccess, ref.LogSuccess)
	}
	if res.QCCD == nil || res.QCCD.Capacity != ref.Capacity {
		t.Errorf("capacity mismatch: got %+v, ref %d", res.QCCD, ref.Capacity)
	}
}

// TestAutoTuneParity checks the backend AutoTune against one stock compile
// and simulation per candidate MaxSwapLen.
func TestAutoTuneParity(t *testing.T) {
	ctx := context.Background()
	bm := tilt.GHZ(12)
	var refTrials []tilt.TuneResult
	refBest := -1
	for _, l := range []int{5, 4} {
		cfg := standardConfig(12, 6)
		cfg.Swap.MaxSwapLen = l
		cr, err := core.CompileWith(ctx, bm.Circuit, cfg, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		sr, err := cr.Simulate(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		refTrials = append(refTrials, tilt.TuneResult{
			MaxSwapLen: l, SwapCount: cr.SwapCount, Moves: cr.Moves(), LogSuccess: sr.LogSuccess,
		})
		if refBest == -1 || sr.LogSuccess > refTrials[refBest].LogSuccess {
			refBest = len(refTrials) - 1
		}
	}
	trials, best, err := tilt.NewTILT(tilt.WithDevice(12, 6)).
		AutoTune(ctx, bm.Circuit, []int{5, 4})
	if err != nil {
		t.Fatal(err)
	}
	if best != refBest || len(trials) != len(refTrials) {
		t.Fatalf("best=%d/%d trials=%d/%d", best, refBest, len(trials), len(refTrials))
	}
	for i := range trials {
		if trials[i] != refTrials[i] {
			t.Errorf("trial %d: %+v != ref %+v", i, trials[i], refTrials[i])
		}
	}
}

func TestAutoTuneFindsASweetSpot(t *testing.T) {
	bm := workloads.QFTN(12)
	be := tilt.NewTILT(tilt.WithDevice(12, 6), tilt.WithPlacement(tilt.GreedyPlacement))
	trials, best, err := be.AutoTune(context.Background(), bm.Circuit, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(trials) == 0 || best < 0 || best >= len(trials) {
		t.Fatalf("trials=%d best=%d", len(trials), best)
	}
	for _, tr := range trials {
		if tr.LogSuccess > trials[best].LogSuccess {
			t.Errorf("AutoTune best %d not optimal: %v beats it", best, tr)
		}
	}
	// Candidates default to HeadSize-1 .. HeadSize/2.
	if trials[0].MaxSwapLen != 5 || trials[len(trials)-1].MaxSwapLen != 3 {
		t.Errorf("default candidate range wrong: %v", trials)
	}
}

func TestAutoTuneExplicitCandidates(t *testing.T) {
	bm := workloads.QFTN(10)
	be := tilt.NewTILT(tilt.WithDevice(10, 5), tilt.WithPlacement(tilt.GreedyPlacement))
	trials, best, err := be.AutoTune(context.Background(), bm.Circuit, []int{4, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(trials) != 2 {
		t.Fatalf("want 2 trials, got %d", len(trials))
	}
	if best != 0 && best != 1 {
		t.Fatalf("best index %d", best)
	}
	if _, _, err := be.AutoTune(context.Background(), bm.Circuit, []int{99}); err == nil {
		t.Error("out-of-range candidate should fail")
	}
}

// TestBackendDefaultsToCircuitWidth checks the zero-device resolution rule.
func TestBackendDefaultsToCircuitWidth(t *testing.T) {
	bm := tilt.GHZ(10)
	art, err := tilt.NewTILT(tilt.WithDevice(0, 4)).Compile(context.Background(), bm.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	if got := art.Compile.Physical.NumQubits(); got != 10 {
		t.Errorf("resolved chain length %d, want 10", got)
	}
}

// TestArtifactBackendMismatch: simulating another backend's artifact must
// fail loudly, not silently misinterpret it.
func TestArtifactBackendMismatch(t *testing.T) {
	ctx := context.Background()
	bm := tilt.GHZ(8)
	art, err := tilt.NewTILT(tilt.WithDevice(8, 4)).Compile(ctx, bm.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tilt.NewQCCD(tilt.WithDevice(8, 0)).Simulate(ctx, art); err == nil {
		t.Error("QCCD.Simulate accepted a TILT artifact")
	}
	if _, err := tilt.NewIdealTI(tilt.WithDevice(8, 4)).Simulate(ctx, nil); err == nil {
		t.Error("Simulate accepted a nil artifact")
	}
}

// TestBackendCancellation: a pre-cancelled context aborts every backend.
func TestBackendCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	bm := tilt.BenchmarkBV()
	for _, be := range []tilt.Backend{
		tilt.NewTILT(tilt.WithDevice(bm.Qubits(), 16)),
		tilt.NewQCCD(tilt.WithDevice(bm.Qubits(), 16)),
		tilt.NewIdealTI(tilt.WithDevice(bm.Qubits(), 16)),
	} {
		if _, err := tilt.Execute(ctx, be, bm.Circuit); err == nil {
			t.Errorf("%s: cancelled Execute succeeded", be.Name())
		}
	}
}

// TestWithNoiseOption checks that zeroed error rates give certainty.
func TestWithNoiseOption(t *testing.T) {
	p := tilt.DefaultNoise()
	p.Gamma = 0
	p.Epsilon = 0
	p.K0 = 0
	p.OneQubitError = 0
	res, err := tilt.Execute(context.Background(),
		tilt.NewTILT(tilt.WithDevice(8, 4), tilt.WithNoise(p)), tilt.GHZ(8).Circuit)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.SuccessRate-1) > 1e-12 {
		t.Errorf("noiseless run success = %g", res.SuccessRate)
	}
}

// TestWithOptimizeOption checks the functional option reaches the pipeline.
func TestWithOptimizeOption(t *testing.T) {
	// Two adjacent RX rotations on one qubit merge into a single rotation.
	c := tilt.NewCircuit(4)
	c.ApplyRX(math.Pi/4, 0)
	c.ApplyRX(math.Pi/4, 0)
	c.ApplyCNOT(0, 1)
	res, err := tilt.Execute(context.Background(),
		tilt.NewTILT(tilt.WithDevice(4, 4), tilt.WithOptimize()), c)
	if err != nil {
		t.Fatal(err)
	}
	if res.TILT.OptStats.Total() == 0 {
		t.Error("WithOptimize did not engage the peephole optimizer")
	}
}

func TestWithShotsPopulatesMCStats(t *testing.T) {
	ctx := context.Background()
	bench := tilt.GHZ(10)
	be := tilt.NewTILT(tilt.WithDevice(10, 4), tilt.WithShots(500), tilt.WithSeed(3))
	res, err := tilt.Execute(ctx, be, bench.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	mc := res.MC
	if mc == nil {
		t.Fatal("WithShots(500) should populate Result.MC")
	}
	if mc.Shots != 500 || mc.Seed != 3 {
		t.Errorf("MC echoes Shots=%d Seed=%d, want 500/3", mc.Shots, mc.Seed)
	}
	// The clean-trajectory estimate validates the analytic success rate.
	if d := math.Abs(mc.CleanProbability - res.SuccessRate); d > 5*mc.CleanStderr+1e-9 {
		t.Errorf("MC clean %g ± %g vs analytic %g: off by %g",
			mc.CleanProbability, mc.CleanStderr, res.SuccessRate, d)
	}
	if mc.CleanStderr <= 0 {
		t.Errorf("CleanStderr = %g, want > 0", mc.CleanStderr)
	}
	// 10 ions fit the statevector simulator.
	if !mc.HasStateFidelity {
		t.Fatal("10-ion chain should report a state-fidelity estimate")
	}
	if mc.StateFidelity <= 0 || mc.StateFidelity > 1 {
		t.Errorf("StateFidelity = %g outside (0,1]", mc.StateFidelity)
	}

	// Without WithShots, Monte Carlo stays off.
	plain, err := tilt.Execute(ctx, tilt.NewTILT(tilt.WithDevice(10, 4)), bench.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	if plain.MC != nil {
		t.Error("Result.MC should be nil without WithShots")
	}
}

func TestWithShotsDeterministicAcrossMCWorkers(t *testing.T) {
	ctx := context.Background()
	bench := tilt.GHZ(12)
	var ref *tilt.MCStats
	for i, workers := range []int{1, 4} {
		be := tilt.NewTILT(tilt.WithDevice(12, 4), tilt.WithShots(600),
			tilt.WithSeed(11), tilt.WithMCWorkers(workers))
		res, err := tilt.Execute(ctx, be, bench.Circuit)
		if err != nil {
			t.Fatal(err)
		}
		if res.MC == nil {
			t.Fatal("missing MC stats")
		}
		if i == 0 {
			ref = res.MC
			continue
		}
		if *res.MC != *ref {
			t.Errorf("MC stats differ across worker counts: %+v vs %+v", *res.MC, *ref)
		}
	}
}

func TestWithShotsHonorsCancellation(t *testing.T) {
	// Cancel while the MC batch is in flight: the analytic sim.Simulate
	// step finishes in microseconds, so a prompt error from Simulate can
	// only come from the backend threading ctx into the MC engine.
	bench := tilt.GHZ(12)
	be := tilt.NewTILT(tilt.WithDevice(12, 4), tilt.WithShots(2_000_000_000))
	art, err := be.Compile(context.Background(), bench.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	defer cancel()
	start := time.Now()
	_, err = be.Simulate(ctx, art)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("Simulate err = %v, want context.Canceled from the MC batch", err)
	}
	// Generous bound: under -race with the full suite's packages running
	// concurrently, scheduler contention stretches the shard loop; without
	// cancellation the 2e9-shot batch would run for hours either way.
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Errorf("Simulate took %v after cancellation; MC batch not abandoned promptly", elapsed)
	}
}

func TestRepeatSimulateReusesMCStats(t *testing.T) {
	ctx := context.Background()
	bench := tilt.GHZ(10)
	be := tilt.NewTILT(tilt.WithDevice(10, 4), tilt.WithShots(300), tilt.WithSeed(5))
	art, err := be.Compile(ctx, bench.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	first, err := be.Simulate(ctx, art)
	if err != nil {
		t.Fatal(err)
	}
	second, err := be.Simulate(ctx, art)
	if err != nil {
		t.Fatal(err)
	}
	if *first.MC != *second.MC {
		t.Errorf("repeat Simulate changed MC stats: %+v vs %+v", *first.MC, *second.MC)
	}
	if first.MC == second.MC {
		t.Error("results should not alias one MCStats value")
	}
}

// TestCompileCacheConcurrentBatch drives one cached TILT backend from a
// parallel runner batch (meaningful under -race) and asserts the settled
// hit/miss totals: every distinct circuit was compiled exactly once during
// the serial pre-warm, and every parallel job hit the cache. Counters are
// only inspected after the batch settles — mid-flight snapshots race with
// other jobs by design.
func TestCompileCacheConcurrentBatch(t *testing.T) {
	ctx := context.Background()
	reg := tilt.NewMetricsRegistry()
	be := tilt.NewTILT(tilt.WithDevice(0, 4), tilt.WithCompileCache(8), tilt.WithMetrics(reg))

	distinct := []*tilt.Circuit{
		tilt.GHZ(6).Circuit,
		tilt.GHZ(7).Circuit,
		tilt.GHZ(8).Circuit,
		tilt.GHZ(9).Circuit,
	}
	// Pre-warm serially so the parallel phase's expected counts are exact:
	// concurrent first compiles of one fingerprint may legitimately miss
	// more than once (both check before either inserts).
	for _, c := range distinct {
		if _, err := be.Compile(ctx, c); err != nil {
			t.Fatal(err)
		}
	}

	const repeats = 8
	var jobs []runner.Job
	for r := 0; r < repeats; r++ {
		for i, c := range distinct {
			jobs = append(jobs, runner.Job{
				Name:    fmt.Sprintf("rep%d/ghz%d", r, i+6),
				Backend: be,
				Circuit: c,
			})
		}
	}
	results := runner.Run(ctx, jobs, runner.WithWorkers(8))
	for _, jr := range results {
		if jr.Err != nil {
			t.Fatalf("%s: %v", jr.Name, jr.Err)
		}
	}

	// Settled counters, via one extra Execute whose own Compile is one more
	// hit (Result.Cache is the only public window onto the lru counters).
	res, err := tilt.Execute(ctx, be, distinct[0])
	if err != nil {
		t.Fatal(err)
	}
	wantHits := int64(repeats*len(distinct) + 1)
	wantMisses := int64(len(distinct))
	if res.Cache == nil {
		t.Fatal("Result.Cache missing on a cached backend")
	}
	if res.Cache.Hits != wantHits || res.Cache.Misses != wantMisses {
		t.Errorf("cache hits/misses = %d/%d, want %d/%d",
			res.Cache.Hits, res.Cache.Misses, wantHits, wantMisses)
	}
	if res.Cache.Entries != len(distinct) {
		t.Errorf("cache entries = %d, want %d", res.Cache.Entries, len(distinct))
	}

	// The metrics registry must agree with the lru counters once settled.
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		fmt.Sprintf(`linq_compile_cache_hits_total{backend="TILT"} %d`, wantHits),
		fmt.Sprintf(`linq_compile_cache_misses_total{backend="TILT"} %d`, wantMisses),
		fmt.Sprintf(`linq_compiles_total{backend="TILT"} %d`, len(distinct)),
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestWithMetricsInstrumentsBackend: one compile+simulate on an instrumented
// backend populates the latency histograms, the per-pass histograms, and —
// with WithShots — the Monte-Carlo throughput counters.
func TestWithMetricsInstrumentsBackend(t *testing.T) {
	ctx := context.Background()
	reg := tilt.NewMetricsRegistry()
	const shots = 600 // 3 shards of 256/256/88
	be := tilt.NewTILT(tilt.WithDevice(8, 4), tilt.WithMetrics(reg),
		tilt.WithShots(shots), tilt.WithSeed(7))
	if _, err := tilt.Execute(ctx, be, tilt.GHZ(8).Circuit); err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`linq_compiles_total{backend="TILT"} 1`,
		`linq_compile_seconds_count{backend="TILT"} 1`,
		`linq_simulate_seconds_count{backend="TILT"} 1`,
		`linq_pass_seconds_count{pass="decompose"} 1`,
		`linq_pass_seconds_count{pass="schedule"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// GHZ(8) fits the statevector simulator, so both estimators run: shots
	// are metered once per estimator.
	if want := fmt.Sprintf("linq_mc_shots_total %d", 2*shots); !strings.Contains(out, want) {
		t.Errorf("exposition missing %q", want)
	}
	if !strings.Contains(out, "linq_mc_shard_seconds_count 6") {
		t.Errorf("expected 6 metered MC shards:\n%s", out)
	}
}
