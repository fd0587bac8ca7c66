package mc

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/mapping"
	"repro/internal/noise"
	"repro/internal/swapins"
	"repro/internal/workloads"
)

// benchEngine compiles the StateFidelity benchmark workload once.
func benchEngine(b *testing.B, workers int) *Engine {
	b.Helper()
	cfg := core.Config{
		Device:    device.TILT{NumIons: 10, HeadSize: 4},
		Placement: mapping.ProgramOrderPlacement,
		Inserter:  swapins.LinQ{},
	}
	cr, err := core.CompileWith(context.Background(), workloads.QFTN(10).Circuit, cfg, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := NewEngine(cr.Physical, cr.Schedule, cfg.Device, noise.Default(), WithWorkers(workers))
	if err != nil {
		b.Fatal(err)
	}
	return eng
}

// benchShots spans 8 RNG shards so an 8-worker pool is fully occupied.
const benchShots = 8 * shardSize

// BenchmarkMCSerial is the single-worker baseline for the StateFidelity
// workload: one goroutine, one reusable statevector.
func BenchmarkMCSerial(b *testing.B) {
	eng := benchEngine(b, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := eng.StateFidelity(context.Background(), benchShots, 7); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMCParallel runs the same workload on an 8-worker pool. The
// estimates are bit-identical to BenchmarkMCSerial's; on an 8-core machine
// the wall clock should drop by roughly the worker count.
func BenchmarkMCParallel(b *testing.B) {
	eng := benchEngine(b, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := eng.StateFidelity(context.Background(), benchShots, 7); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMCCleanParallel exercises the cheaper combinatorial estimator at
// paper scale (no statevector), where per-shot work is RNG-bound.
func BenchmarkMCCleanParallel(b *testing.B) {
	eng := benchEngine(b, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := eng.CleanProbability(context.Background(), 16*shardSize, 7); err != nil {
			b.Fatal(err)
		}
	}
}
