package mc

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/mapping"
	"repro/internal/noise"
	"repro/internal/qsim"
	"repro/internal/swapins"
	"repro/internal/workloads"
)

func compileSmall(t *testing.T, n, head int, bm workloads.Benchmark) (*core.CompileResult, core.Config) {
	t.Helper()
	cfg := core.Config{
		Device:    device.TILT{NumIons: n, HeadSize: head},
		Placement: mapping.ProgramOrderPlacement,
		Inserter:  swapins.LinQ{},
	}
	cr, err := core.CompileWith(context.Background(), bm.Circuit, cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return cr, cfg
}

func TestCleanProbabilityMatchesAnalytic(t *testing.T) {
	// A deep small circuit with real heating: the MC estimate must land
	// within ~4 standard errors of the analytic product.
	cr, cfg := compileSmall(t, 12, 4, workloads.QFTN(12))
	p := noise.Default()
	p.Epsilon = 2e-4 // mild inflation keeps the clean probability mid-range
	analytic, err := AnalyticClean(cr.Physical, cr.Schedule, cfg.Device, p)
	if err != nil {
		t.Fatal(err)
	}
	if analytic < 0.05 || analytic > 0.95 {
		t.Fatalf("test wants a mid-range clean probability, got %g", analytic)
	}
	est, se, err := CleanProbability(context.Background(), cr.Physical, cr.Schedule, cfg.Device, p, 4000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(est - analytic); d > 4*se+1e-9 {
		t.Errorf("MC %g ± %g vs analytic %g: off by %g", est, se, analytic, d)
	}
}

func TestCleanProbabilityAgreesWithSimSimulate(t *testing.T) {
	// The independent event-stream accounting must reproduce the analytic
	// simulator's success rate (the cross-validation this package exists
	// for). sim's product includes the same per-gate fidelities.
	cr, cfg := compileSmall(t, 12, 4, workloads.QFTN(12))
	p := noise.Default()
	simRes, err := cr.Simulate(context.Background(), core.Config{Device: cfg.Device, Noise: &p,
		Placement: cfg.Placement, Inserter: cfg.Inserter})
	if err != nil {
		t.Fatal(err)
	}
	analytic, err := AnalyticClean(cr.Physical, cr.Schedule, cfg.Device, p)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(analytic-simRes.SuccessRate) / simRes.SuccessRate; rel > 1e-9 {
		t.Errorf("event-stream analytic %g != sim.Simulate %g (rel %g)",
			analytic, simRes.SuccessRate, rel)
	}
}

func TestCleanProbabilityAgreesWithSimUnderCooling(t *testing.T) {
	// The shared EffectiveQuanta accounting must keep mc and sim identical
	// with sympathetic cooling on, including at interval boundaries.
	cr, cfg := compileSmall(t, 12, 4, workloads.QFTN(12))
	for _, iv := range []int{1, 2, 3, 7} {
		p := noise.Default()
		p.CoolingInterval = iv
		simRes, err := cr.Simulate(context.Background(), core.Config{Device: cfg.Device, Noise: &p,
			Placement: cfg.Placement, Inserter: cfg.Inserter})
		if err != nil {
			t.Fatal(err)
		}
		analytic, err := AnalyticClean(cr.Physical, cr.Schedule, cfg.Device, p)
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(analytic-simRes.SuccessRate) / simRes.SuccessRate; rel > 1e-9 {
			t.Errorf("interval %d: event-stream analytic %g != sim.Simulate %g (rel %g)",
				iv, analytic, simRes.SuccessRate, rel)
		}
	}
}

func TestCleanProbabilityHonorsCooling(t *testing.T) {
	cr, cfg := compileSmall(t, 12, 4, workloads.QFTN(12))
	base := noise.Default()
	cooled := noise.Default()
	cooled.CoolingInterval = 1
	aBase, err := AnalyticClean(cr.Physical, cr.Schedule, cfg.Device, base)
	if err != nil {
		t.Fatal(err)
	}
	aCooled, err := AnalyticClean(cr.Physical, cr.Schedule, cfg.Device, cooled)
	if err != nil {
		t.Fatal(err)
	}
	if aCooled <= aBase {
		t.Errorf("cooling should raise clean probability: %g vs %g", aCooled, aBase)
	}
}

func TestStateFidelityTracksAnalytic(t *testing.T) {
	// With moderate error rates, the depolarizing-injection fidelity must
	// be at least the zero-event probability (error trajectories still
	// overlap the ideal state sometimes) and well below 1.
	cr, cfg := compileSmall(t, 10, 4, workloads.GHZ(10))
	p := noise.Default()
	p.Epsilon = 5e-3
	analytic, err := AnalyticClean(cr.Physical, cr.Schedule, cfg.Device, p)
	if err != nil {
		t.Fatal(err)
	}
	est, se, err := StateFidelity(context.Background(), cr.Physical, cr.Schedule, cfg.Device, p, 300, 11)
	if err != nil {
		t.Fatal(err)
	}
	if est < analytic-4*se-1e-9 {
		t.Errorf("state fidelity %g ± %g below clean probability %g", est, se, analytic)
	}
	if est >= 1 {
		t.Errorf("state fidelity %g should be damped below 1", est)
	}
}

func TestStateFidelityPerfectWithoutNoise(t *testing.T) {
	cr, cfg := compileSmall(t, 8, 4, workloads.GHZ(8))
	p := noise.Default()
	p.Gamma, p.Epsilon, p.K0, p.OneQubitError = 0, 0, 0, 0
	est, se, err := StateFidelity(context.Background(), cr.Physical, cr.Schedule, cfg.Device, p, 50, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est-1) > 1e-9 || se > 1e-9 {
		t.Errorf("noiseless fidelity = %g ± %g, want exactly 1", est, se)
	}
}

func TestCleanStderrPositiveAtBoundary(t *testing.T) {
	// A noiseless schedule puts the estimate at exactly 1; the Wilson
	// half-width must still report a finite-shot uncertainty, never a
	// zero-width error bar.
	cr, cfg := compileSmall(t, 8, 4, workloads.GHZ(8))
	p := noise.Default()
	p.Gamma, p.Epsilon, p.K0, p.OneQubitError = 0, 0, 0, 0
	est, se, err := CleanProbability(context.Background(), cr.Physical, cr.Schedule, cfg.Device, p, 200, 5)
	if err != nil {
		t.Fatal(err)
	}
	if est != 1 {
		t.Fatalf("noiseless clean probability = %g, want 1", est)
	}
	if se <= 0 {
		t.Errorf("stderr = %g at estimate 1, want > 0 (Wilson half-width)", se)
	}
	// And symmetrically at 0: a schedule that always fails.
	p = noise.Default()
	p.OneQubitError = 0.999999
	est, se, err = CleanProbability(context.Background(), cr.Physical, cr.Schedule, cfg.Device, p, 200, 5)
	if err != nil {
		t.Fatal(err)
	}
	if est != 0 {
		t.Fatalf("always-failing clean probability = %g, want 0", est)
	}
	if se <= 0 {
		t.Errorf("stderr = %g at estimate 0, want > 0 (Wilson half-width)", se)
	}
}

func TestWelfordMatchesTwoPass(t *testing.T) {
	// The sharded Welford accumulation must agree with a naive two-pass
	// unbiased variance, including across merges.
	xs := []float64{0.2, 0.9, 0.4, 1.0, 0.99, 0.3, 0.75, 0.5}
	var a, b welford
	for _, x := range xs[:3] {
		a.add(x)
	}
	for _, x := range xs[3:] {
		b.add(x)
	}
	a.merge(b)

	var mean float64
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	var m2 float64
	for _, x := range xs {
		m2 += (x - mean) * (x - mean)
	}
	wantVar := m2 / float64(len(xs)-1)

	if math.Abs(a.mean-mean) > 1e-12 {
		t.Errorf("merged mean %g, want %g", a.mean, mean)
	}
	if math.Abs(a.sampleVariance()-wantVar) > 1e-12 {
		t.Errorf("merged variance %g, want %g", a.sampleVariance(), wantVar)
	}
}

func TestInputValidation(t *testing.T) {
	cr, cfg := compileSmall(t, 8, 4, workloads.GHZ(8))
	p := noise.Default()
	ctx := context.Background()
	if _, _, err := CleanProbability(ctx, cr.Physical, cr.Schedule, cfg.Device, p, 0, 1); err == nil {
		t.Error("zero shots should fail")
	}
	if _, _, err := StateFidelity(ctx, cr.Physical, cr.Schedule, cfg.Device, p, 0, 1); err == nil {
		t.Error("zero shots should fail")
	}
	wide := device.TILT{NumIons: 32, HeadSize: 8}
	crWide, err := core.CompileWith(ctx, workloads.GHZ(32).Circuit, core.Config{
		Device: wide, Placement: mapping.ProgramOrderPlacement,
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := StateFidelity(ctx, crWide.Physical, crWide.Schedule, wide, p, 10, 1); err == nil {
		t.Error("StateFidelity above 16 ions should fail")
	}
}

func TestDeterministicForSeed(t *testing.T) {
	cr, cfg := compileSmall(t, 10, 4, workloads.GHZ(10))
	p := noise.Default()
	ctx := context.Background()
	a, _, err := CleanProbability(ctx, cr.Physical, cr.Schedule, cfg.Device, p, 500, 9)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := CleanProbability(ctx, cr.Physical, cr.Schedule, cfg.Device, p, 500, 9)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("MC not deterministic for fixed seed: %g vs %g", a, b)
	}
}

func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	// The sharded RNG decouples the estimate from the worker pool: results
	// must be bit-identical for 1, 4, and GOMAXPROCS workers. Run under
	// -race this also exercises the pool for data races.
	cr, cfg := compileSmall(t, 10, 4, workloads.QFTN(10))
	p := noise.Default()
	p.Epsilon = 2e-4
	ctx := context.Background()
	// More shots than one shard so the pool genuinely fans out.
	const shots = 3*shardSize + 17

	type pair struct{ est, se float64 }
	var cleanRef, fidRef pair
	for i, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		eng, err := NewEngine(cr.Physical, cr.Schedule, cfg.Device, p, WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		cEst, cSe, err := eng.CleanProbability(ctx, shots, 42)
		if err != nil {
			t.Fatal(err)
		}
		fEst, fSe, err := eng.StateFidelity(ctx, shots, 42)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			cleanRef = pair{cEst, cSe}
			fidRef = pair{fEst, fSe}
			continue
		}
		if cEst != cleanRef.est || cSe != cleanRef.se {
			t.Errorf("workers=%d: CleanProbability %v ± %v != serial %v ± %v",
				workers, cEst, cSe, cleanRef.est, cleanRef.se)
		}
		if fEst != fidRef.est || fSe != fidRef.se {
			t.Errorf("workers=%d: StateFidelity %v ± %v != serial %v ± %v",
				workers, fEst, fSe, fidRef.est, fidRef.se)
		}
	}
}

func TestEngineReuseAcrossSeeds(t *testing.T) {
	// One engine, many seeds: estimates vary with the seed but the compiled
	// event stream (and the analytic product) is fixed.
	cr, cfg := compileSmall(t, 10, 4, workloads.QFTN(10))
	p := noise.Default()
	p.Epsilon = 2e-4
	eng, err := NewEngine(cr.Physical, cr.Schedule, cfg.Device, p)
	if err != nil {
		t.Fatal(err)
	}
	analytic := eng.AnalyticClean()
	distinct := map[float64]bool{}
	for seed := int64(0); seed < 4; seed++ {
		est, se, err := eng.CleanProbability(context.Background(), 2000, seed)
		if err != nil {
			t.Fatal(err)
		}
		if d := math.Abs(est - analytic); d > 5*se+1e-9 {
			t.Errorf("seed %d: estimate %g too far from analytic %g", seed, est, analytic)
		}
		distinct[est] = true
	}
	if len(distinct) < 2 {
		t.Error("different seeds should give different finite-shot estimates")
	}
}

func TestCancellationBeforeStart(t *testing.T) {
	cr, cfg := compileSmall(t, 10, 4, workloads.GHZ(10))
	p := noise.Default()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := CleanProbability(ctx, cr.Physical, cr.Schedule, cfg.Device, p, 10000, 1); !errors.Is(err, context.Canceled) {
		t.Errorf("CleanProbability on cancelled ctx: err = %v, want context.Canceled", err)
	}
	if _, _, err := StateFidelity(ctx, cr.Physical, cr.Schedule, cfg.Device, p, 10000, 1); !errors.Is(err, context.Canceled) {
		t.Errorf("StateFidelity on cancelled ctx: err = %v, want context.Canceled", err)
	}
}

func TestCancellationMidBatch(t *testing.T) {
	// Cancel shortly after the batch starts; both estimators must abandon
	// the remaining shots promptly instead of finishing the full workload.
	cr, cfg := compileSmall(t, 14, 4, workloads.QFTN(14))
	p := noise.Default()

	for name, run := range map[string]func(ctx context.Context) error{
		"CleanProbability": func(ctx context.Context) error {
			_, _, err := CleanProbability(ctx, cr.Physical, cr.Schedule, cfg.Device, p, 50_000_000, 1)
			return err
		},
		"StateFidelity": func(ctx context.Context) error {
			_, _, err := StateFidelity(ctx, cr.Physical, cr.Schedule, cfg.Device, p, 1_000_000, 1)
			return err
		},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(10 * time.Millisecond)
			cancel()
		}()
		start := time.Now()
		err := run(ctx)
		elapsed := time.Since(start)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", name, err)
		}
		if elapsed > 5*time.Second {
			t.Errorf("%s: took %v after cancellation; not prompt", name, elapsed)
		}
	}
}

// stateFidelityReference is the full-replay shot loop StateFidelity ran
// before checkpoint resume: every shot re-applies every event from |0…0⟩
// and draws each event's errors right after its gate. It runs the shards
// serially (the estimate never depends on the pool) and is the oracle the
// differential test holds StateFidelity to, bit for bit.
func stateFidelityReference(e *Engine, shots int, seed int64) (estimate, stderr float64) {
	ideal := qsim.NewState(e.ions)
	for _, ev := range e.evs {
		ideal.ApplyGate(ev.gate)
	}
	st := qsim.NewState(e.ions)
	paulis := [3]qsim.Matrix2{qsim.MatX(), qsim.MatY(), qsim.MatZ()}
	var agg welford
	for shard := 0; shard*shardSize < shots; shard++ {
		rng := rand.New(rand.NewSource(shardSeed(seed, shard)))
		var w welford
		for s := 0; s < shardShots(shots, shard); s++ {
			st.Reset()
			for _, ev := range e.evs {
				st.ApplyGate(ev.gate)
				for r := 0; r < ev.reps; r++ {
					if rng.Float64() < ev.p {
						for _, q := range ev.gate.Qubits {
							st.ApplyMat2(paulis[rng.Intn(3)], q)
						}
					}
				}
			}
			w.add(st.FidelityWith(ideal))
		}
		agg.merge(w)
	}
	return agg.mean, math.Sqrt(agg.sampleVariance() / float64(agg.n))
}

// diffCase is one engine for the differential test; tweak, when set, edits
// the compiled event stream (error probabilities only) before the run.
type diffCase struct {
	name  string
	c     *circuit.Circuit
	p     noise.Params
	tweak func(evs []gateEvent)
	seeds []int64
}

// forceFirstError returns a tweak that makes event k the first error of
// every shot: no event before it can fire, event k always does, and the
// events after it keep their scheduled probabilities.
func forceFirstError(k int) func([]gateEvent) {
	return func(evs []gateEvent) {
		for i := range evs[:k] {
			evs[i].p = 0
		}
		evs[k].p = 1
	}
}

func TestStateFidelityMatchesFullReplay(t *testing.T) {
	inflated := noise.Default()
	inflated.Epsilon = 2e-3 // a good share of shots err, at varied events
	noiseless := noise.Default()
	noiseless.Gamma, noiseless.Epsilon, noiseless.K0, noiseless.OneQubitError = 0, 0, 0, 0

	measured := workloads.QFTN(6).Circuit.Clone()
	for q := 0; q < measured.NumQubits(); q++ {
		measured.ApplyMeasure(q)
	}
	measured.ApplyRY(0.3, 2) // gates after a Measure still evolve the state
	measureOnly := circuit.New(4)
	for q := 0; q < 4; q++ {
		measureOnly.ApplyMeasure(q)
	}

	cases := []diffCase{
		{name: "qft", c: workloads.QFTN(6).Circuit, p: inflated, seeds: []int64{1, 7, 42}},
		{name: "random-swaps-a", c: workloads.Random(7, 14, 3).Circuit, p: inflated, seeds: []int64{5}},
		{name: "random-swaps-b", c: workloads.Random(7, 14, 11).Circuit, p: inflated, seeds: []int64{9}},
		{name: "measure", c: measured, p: inflated, seeds: []int64{2}},
		{name: "noiseless", c: workloads.QFTN(6).Circuit, p: noiseless, seeds: []int64{3}},
		{name: "first-event-certain", c: workloads.QFTN(6).Circuit, p: inflated,
			tweak: func(evs []gateEvent) { evs[0].p = 1 }, seeds: []int64{4}},
		{name: "measure-only", c: measureOnly, p: inflated, seeds: []int64{6}},
	}

	// Forced first errors around the checkpoint boundaries of a QFT-6
	// stream: stride = ⌈√N⌉ events between checkpoints.
	qft, qftCfg := compileSmall(t, 6, 4, workloads.QFTN(6))
	probe, err := NewEngine(qft.Physical, qft.Schedule, qftCfg.Device, inflated)
	if err != nil {
		t.Fatal(err)
	}
	nEv := len(probe.evs)
	stride := int(math.Ceil(math.Sqrt(float64(nEv))))
	for _, k := range []int{stride - 1, stride, stride + 1, 2 * stride, nEv - 1} {
		cases = append(cases, diffCase{name: fmt.Sprintf("forced-first-error-%d-of-%d", k, nEv),
			c: workloads.QFTN(6).Circuit, p: inflated, tweak: forceFirstError(k), seeds: []int64{8}})
	}

	ctx := context.Background()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cr, cfg := compileSmall(t, tc.c.NumQubits(), 4, workloads.Benchmark{Name: tc.name, Circuit: tc.c})
			switch {
			case strings.HasPrefix(tc.name, "random-swaps") && cr.Physical.CountKind(circuit.SWAP) == 0:
				t.Fatal("compiled circuit has no SWAPs; the reps = 3 path goes untested")
			case strings.HasPrefix(tc.name, "measure") && cr.Physical.CountKind(circuit.Measure) == 0:
				t.Fatal("compiled circuit lost its Measure markers")
			}
			var engines []*Engine
			for _, workers := range []int{1, 3, 8} {
				eng, err := NewEngine(cr.Physical, cr.Schedule, cfg.Device, tc.p, WithWorkers(workers))
				if err != nil {
					t.Fatal(err)
				}
				if tc.tweak != nil {
					tc.tweak(eng.evs)
				}
				engines = append(engines, eng)
			}
			ref := engines[0]
			if tc.name == "measure-only" && len(ref.evs) != 0 {
				t.Fatalf("measure-only circuit compiled to %d events, want 0", len(ref.evs))
			}
			if a := ref.AnalyticClean(); tc.p == inflated && tc.tweak == nil && len(ref.evs) > 0 && (a < 0.05 || a > 0.95) {
				t.Fatalf("clean probability %g: want both clean and errored shots", a)
			}
			for _, seed := range tc.seeds {
				for _, shots := range []int{1, 255, 256, 257, 1000} {
					wantEst, wantSe := stateFidelityReference(ref, shots, seed)
					for _, eng := range engines {
						est, se, err := eng.StateFidelity(ctx, shots, seed)
						if err != nil {
							t.Fatal(err)
						}
						if math.Float64bits(est) != math.Float64bits(wantEst) || math.Float64bits(se) != math.Float64bits(wantSe) {
							t.Errorf("seed %d, %d shots, %d workers: %v ± %v, full replay gives %v ± %v",
								seed, shots, eng.workers, est, se, wantEst, wantSe)
						}
					}
				}
			}
		})
	}
}

func TestCheckpointStrideRespectsMemoryCap(t *testing.T) {
	for _, n := range []int{0, 1, 2, 99, 100, 101, 400, 10_000, 1_000_000} {
		floor := max(1, int(math.Ceil(math.Sqrt(float64(n)))))
		for ions := 1; ions <= MaxStateFidelityIons; ions++ {
			dim := 1 << ions
			stride := checkpointStride(n, dim)
			bytes := func(stride int) int { return (n + stride - 1) / stride * dim * 16 }
			switch {
			case stride < floor:
				t.Errorf("n=%d, %d ions: stride %d below ⌈√n⌉ = %d", n, ions, stride, floor)
			case bytes(stride) > checkpointBytes:
				t.Errorf("n=%d, %d ions: stride %d keeps %d bytes of checkpoints, cap %d", n, ions, stride, bytes(stride), checkpointBytes)
			case stride > floor && bytes(stride-1) <= checkpointBytes:
				t.Errorf("n=%d, %d ions: stride %d widened past %d, which fits the cap", n, ions, stride, stride-1)
			}
		}
	}
}

func TestStateFidelityMatchesFullReplayUnderMemoryCap(t *testing.T) {
	// At 16 ions a state is 1 MiB, so a stream of a few hundred events
	// needs more than the 16 checkpoints the cap allows and the stride
	// widens past ⌈√N⌉. Shots resuming around the widened boundaries must
	// still match the full replay bit for bit.
	cr, cfg := compileSmall(t, 16, 4, workloads.Random(16, 60, 5))
	p := noise.Default()
	probe, err := NewEngine(cr.Physical, cr.Schedule, cfg.Device, p)
	if err != nil {
		t.Fatal(err)
	}
	n := len(probe.evs)
	stride := checkpointStride(n, 1<<16)
	if stride <= int(math.Ceil(math.Sqrt(float64(n)))) {
		t.Fatalf("%d events at 16 ions: stride %d is not widened by the cap", n, stride)
	}
	for _, k := range []int{stride, 3*stride - 1, n - 1} {
		eng, err := NewEngine(cr.Physical, cr.Schedule, cfg.Device, p, WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		forceFirstError(k)(eng.evs)
		wantEst, wantSe := stateFidelityReference(eng, 2, 3)
		est, se, err := eng.StateFidelity(context.Background(), 2, 3)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(est) != math.Float64bits(wantEst) || math.Float64bits(se) != math.Float64bits(wantSe) {
			t.Errorf("first error at event %d of %d (stride %d): %v ± %v, full replay gives %v ± %v",
				k, n, stride, est, se, wantEst, wantSe)
		}
	}
}

func TestEstimateMatchesSeparateCalls(t *testing.T) {
	// One Estimate call shares its pool between both estimators; each
	// estimate must equal its single-estimator call bit for bit, for any
	// worker count.
	cr, cfg := compileSmall(t, 8, 4, workloads.QFTN(8))
	p := noise.Default()
	p.Epsilon = 1e-3
	ctx := context.Background()
	bits := math.Float64bits
	for _, workers := range []int{1, 2, 3, 8} {
		eng, err := NewEngine(cr.Physical, cr.Schedule, cfg.Device, p, WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		for _, shots := range []int{1, 256, 300, 2*shardSize + 5} {
			cEst, cSe, err := eng.CleanProbability(ctx, shots, 5)
			if err != nil {
				t.Fatal(err)
			}
			fEst, fSe, err := eng.StateFidelity(ctx, shots, 5)
			if err != nil {
				t.Fatal(err)
			}
			both, err := eng.Estimate(ctx, shots, 5, true)
			if err != nil {
				t.Fatal(err)
			}
			if bits(both.Clean) != bits(cEst) || bits(both.CleanStderr) != bits(cSe) ||
				bits(both.State) != bits(fEst) || bits(both.StateStderr) != bits(fSe) {
				t.Errorf("workers=%d, %d shots: Estimate %+v, separate calls clean %v ± %v, state %v ± %v",
					workers, shots, both, cEst, cSe, fEst, fSe)
			}
			clean, err := eng.Estimate(ctx, shots, 5, false)
			if err != nil {
				t.Fatal(err)
			}
			if clean != (Estimates{Clean: cEst, CleanStderr: cSe}) {
				t.Errorf("workers=%d, %d shots: clean-only Estimate %+v", workers, shots, clean)
			}
		}
	}
}

func TestStateFidelityMemoryIsBoundedInShots(t *testing.T) {
	// Shards run in waves of one per worker, so a call's draw and
	// fidelity buffers — and its RNG streams — are reused across waves
	// instead of growing with the shot count.
	cr, cfg := compileSmall(t, 4, 4, workloads.QFTN(4))
	eng, err := NewEngine(cr.Physical, cr.Schedule, cfg.Device, noise.Default())
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, _, err := eng.StateFidelity(context.Background(), 1<<20, 1); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("allocated %d bytes", got)
	if got >= 4<<20 {
		t.Errorf("2^20-shot StateFidelity on 4 ions allocated %d bytes, want < 4 MiB", got)
	}
}

// errAfter is a context whose Err reports cancellation from its n-th call
// on, counting every call: it cancels a run at a chosen context check.
type errAfter struct {
	context.Context
	calls atomic.Int64
	n     int64
}

func (c *errAfter) Err() error {
	if c.calls.Add(1) >= c.n {
		return context.Canceled
	}
	return nil
}

func TestCancellationAtEveryCheck(t *testing.T) {
	// Cancel at each context check of one Estimate call in turn — clean
	// shards, the ideal pass, the draws and the replays — and require
	// ctx.Err() back every time, with every pool goroutine gone. One more
	// check than the run makes must let it finish with the reference bits.
	cr, cfg := compileSmall(t, 6, 4, workloads.QFTN(6))
	p := noise.Default()
	p.Epsilon = 2e-3
	const shots = shardSize + 44
	for _, workers := range []int{1, 2, 4} {
		eng, err := NewEngine(cr.Physical, cr.Schedule, cfg.Device, p, WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		count := &errAfter{Context: context.Background(), n: math.MaxInt64}
		want, err := eng.Estimate(count, shots, 3, true)
		if err != nil {
			t.Fatal(err)
		}
		checks := count.calls.Load()
		// The checks: 4 + 1 in the two clean shards, the ideal pass's
		// checkpoints plus one, 4 + 1 in the two shards' draws, and one
		// per replay. With one worker they come in that order, wave by
		// wave, so the sweep below cancels inside every kind of task.
		stride := checkpointStride(len(eng.evs), 1<<6)
		idealChecks := int64((len(eng.evs)+stride-1)/stride + 1)
		if replays := checks - (5 + idealChecks + 5); replays < 2 {
			t.Fatalf("%d checks, %d of them replays: want replays in the sweep", checks, replays)
		}
		base := runtime.NumGoroutine()
		for k := int64(1); k <= checks+1; k++ {
			ctx := &errAfter{Context: context.Background(), n: k}
			got, err := eng.Estimate(ctx, shots, 3, true)
			switch {
			case k <= checks && !errors.Is(err, context.Canceled):
				t.Fatalf("workers=%d, cancelled at check %d of %d: err = %v, want context.Canceled", workers, k, checks, err)
			case k > checks && (err != nil || got != want):
				t.Fatalf("workers=%d, uncancelled: %+v, %v; want %+v", workers, got, err, want)
			}
			// A worker is counted until it has fully exited, a moment
			// after the pool stops waiting for it.
			n := runtime.NumGoroutine()
			for deadline := time.Now().Add(time.Second); n > base && time.Now().Before(deadline); n = runtime.NumGoroutine() {
				time.Sleep(time.Millisecond)
			}
			if n > base {
				t.Fatalf("workers=%d, cancelled at check %d: %d goroutines, baseline %d", workers, k, n, base)
			}
		}
	}
}
