// Benchmarks regenerating the paper's evaluation artifacts — one per table
// and figure. Run with:
//
//	go test -bench=. -benchmem
//
// Each benchmark both exercises the full pipeline at paper scale and, on the
// first iteration, reports the headline reproduction numbers through b.Log
// (visible with -v). The printed rows are the same ones
// go run ./cmd/experiments emits.
package tilt_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	tilt "repro"
	"repro/internal/experiments"
	"repro/runner"
)

// BenchmarkTable2Workloads regenerates Table II: the six benchmark circuits
// and their two-qubit gate counts.
func BenchmarkTable2Workloads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table2()
		if len(rows) != 6 {
			b.Fatalf("Table II rows = %d", len(rows))
		}
	}
}

// BenchmarkFig6SwapInsertion regenerates Fig. 6: baseline vs LinQ swap
// insertion on the long-distance benchmarks at head size 16.
func BenchmarkFig6SwapInsertion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig6(context.Background(), 16)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + experiments.FormatFig6(rows))
		}
	}
}

// BenchmarkFig7MaxSwapLen regenerates Fig. 7: the MaxSwapLen sweep from 15
// down to 8 on BV, QFT, and SQRT.
func BenchmarkFig7MaxSwapLen(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig7(context.Background(), 16, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + experiments.FormatFig7(rows))
		}
	}
}

// BenchmarkFig8Architectures regenerates Fig. 8: TILT-16/TILT-32/Ideal/QCCD
// success rates over all six benchmarks (including the QCCD capacity sweep).
func BenchmarkFig8Architectures(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig8(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + experiments.FormatFig8(rows))
		}
	}
}

// BenchmarkTable3Compilation regenerates Table III: compile times, move
// counts, travel distances, and execution-time estimates at heads 16 and 32.
func BenchmarkTable3Compilation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table3(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + experiments.FormatTable3(rows))
		}
	}
}

// BenchmarkExtensionCooling regenerates the §VII sympathetic-cooling
// ablation (success recovery vs cooling interval on QFT-64).
func BenchmarkExtensionCooling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.CoolingAblation(context.Background(), 16, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + experiments.FormatCooling(rows))
		}
	}
}

// BenchmarkExtensionScaling regenerates the §VII single-chain scaling study.
func BenchmarkExtensionScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.ScalingStudy(context.Background(), 16, 10, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + experiments.FormatScaling(rows))
		}
	}
}

// BenchmarkExtensionModular regenerates the §VII MUSIQC modular study.
func BenchmarkExtensionModular(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.ModularStudy(context.Background(), 8, 10, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + experiments.FormatModular(rows))
		}
	}
}

// BenchmarkAblationHeadSize sweeps head sizes beyond the paper's {16, 32}.
func BenchmarkAblationHeadSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.HeadSizeStudy(context.Background(), "QFT", nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + experiments.FormatHeadStudy("QFT", rows))
		}
	}
}

// BenchmarkAblationPlacement compares initial-placement strategies.
func BenchmarkAblationPlacement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.PlacementAblation(context.Background(), 16)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + experiments.FormatPlacement(rows))
		}
	}
}

// BenchmarkAblationAlpha sweeps the Eq. 1 lookahead discount.
func BenchmarkAblationAlpha(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AlphaAblation(context.Background(), 16, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + experiments.FormatAlpha(rows))
		}
	}
}

// BenchmarkAblationOptimizer measures the peephole optimizer's effect.
func BenchmarkAblationOptimizer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.OptimizeAblation(context.Background(), 16)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + experiments.FormatOptimize(rows))
		}
	}
}

// BenchmarkAblationScheduler compares Algorithm 2 against a sweeping head.
func BenchmarkAblationScheduler(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.SchedulerAblation(context.Background(), 16)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + experiments.FormatScheduler(rows))
		}
	}
}

// BenchmarkSuiteShortDistance runs the §III-C application-class suite
// (VQE, Ising, surface-code patches) across architectures.
func BenchmarkSuiteShortDistance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.ShortDistanceSuite(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + experiments.FormatSuite(rows))
		}
	}
}

// BenchmarkAdvantageSummary reproduces the abstract's headline numbers
// ("up to 4.35x and 1.95x on average") from the Fig. 8 data.
func BenchmarkAdvantageSummary(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig8(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		a := experiments.AdvantageSummary(rows, 32)
		if i == 0 {
			b.Log("\n" + experiments.FormatAdvantage(a, 32))
		}
	}
}

// BenchmarkRobustness re-checks the §VI-B orderings at ±2x noise constants.
func BenchmarkRobustness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Robustness(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + experiments.FormatRobustness(rows))
		}
	}
}

// BenchmarkPhysicsAddressing computes the §I execution-zone uniformity study
// on the 64-ion equilibrium chain.
func BenchmarkPhysicsAddressing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AddressingStudy(64, 16, 8)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + experiments.FormatAddressing(64, 16, rows))
		}
	}
}

// BenchmarkPhysicsGateMode reruns the benchmarks with FM-style chain-bound
// gate times (the §III-B gate-selection argument).
func BenchmarkPhysicsGateMode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.GateModeAblation(context.Background(), 16)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + experiments.FormatGateMode(rows))
		}
	}
}

// runnerBatch builds the Fig. 8-shaped batch the runner benchmarks execute:
// every Table II benchmark on TILT-16 and TILT-32 (12 independent
// compile+simulate jobs).
func runnerBatch() []runner.Job {
	var jobs []runner.Job
	for _, bm := range tilt.Benchmarks() {
		for _, head := range []int{16, 32} {
			jobs = append(jobs, runner.Job{
				Name:    fmt.Sprintf("%s/head-%d", bm.Name, head),
				Backend: tilt.NewTILT(tilt.WithDevice(bm.Qubits(), head)),
				Circuit: bm.Circuit,
			})
		}
	}
	return jobs
}

// compileSweep drives one backend through `sweep` compiles of the same
// Table II benchmark — the shape of a parameter study that revisits one
// circuit×config per point.
func compileSweep(b *testing.B, be tilt.Backend, c *tilt.Circuit, sweep int) {
	b.Helper()
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		for j := 0; j < sweep; j++ {
			if _, err := be.Compile(ctx, c); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkCompileCold sweeps the BV benchmark 100× on a cache-less TILT
// backend: every iteration pays the full decompose→place→insert→schedule
// pipeline. Baseline for BenchmarkCompileCached.
func BenchmarkCompileCold(b *testing.B) {
	bm := tilt.BenchmarkBV()
	be := tilt.NewTILT(tilt.WithDevice(0, 16))
	b.ResetTimer()
	compileSweep(b, be, bm.Circuit, 100)
}

// BenchmarkCompileCached is BenchmarkCompileCold behind WithCompileCache:
// the first compile of the sweep misses, the other 99 are content-addressed
// cache hits returning the identical artifact.
func BenchmarkCompileCached(b *testing.B) {
	bm := tilt.BenchmarkBV()
	be := tilt.NewTILT(tilt.WithDevice(0, 16), tilt.WithCompileCache(4))
	b.ResetTimer()
	compileSweep(b, be, bm.Circuit, 100)
}

// BenchmarkRunnerSerial is the baseline for BenchmarkRunnerParallel: the
// same batch forced through one worker — equivalent to looping over
// Execute.
func BenchmarkRunnerSerial(b *testing.B) {
	ctx := context.Background()
	jobs := runnerBatch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, jr := range runner.Run(ctx, jobs, runner.WithWorkers(1)) {
			if jr.Err != nil {
				b.Fatal(jr.Err)
			}
		}
	}
}

// BenchmarkRunnerParallel demonstrates batch throughput scaling vs the
// serial baseline across worker counts up to GOMAXPROCS. Compare with
// BenchmarkRunnerSerial:
//
//	go test -bench 'BenchmarkRunner' -benchmem
func BenchmarkRunnerParallel(b *testing.B) {
	ctx := context.Background()
	jobs := runnerBatch()
	for w := 2; ; w *= 2 {
		if w > runtime.GOMAXPROCS(0) {
			w = runtime.GOMAXPROCS(0)
		}
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, jr := range runner.Run(ctx, jobs, runner.WithWorkers(w)) {
					if jr.Err != nil {
						b.Fatal(jr.Err)
					}
				}
			}
		})
		if w == runtime.GOMAXPROCS(0) {
			break
		}
	}
}
