// Package tilt is the public API of the TILT/LinQ reproduction: a compiler
// and noisy-architecture simulator for the Trapped-Ion Linear-Tape quantum
// computing architecture (Wu et al., HPCA 2021), together with the QCCD and
// ideal trapped-ion baselines it is evaluated against.
//
// Every architecture is a Backend: Compile lowers a circuit to an Artifact,
// Simulate scores it, and both take a context so long jobs are cancellable.
// The typical flow mirrors the paper's Fig. 4 toolflow:
//
//	bench := tilt.BenchmarkQFT()                  // or build a Circuit by hand
//	be := tilt.NewTILT(tilt.WithDevice(64, 16))   // 64-ion chain, 16-laser head
//	res, err := tilt.Execute(ctx, be, bench.Circuit)
//	fmt.Println(res.SuccessRate, res.TILT.Moves)
//
// NewQCCD and NewIdealTI build the paper's two comparison architectures
// behind the same interface, and the repro/runner package fans circuit ×
// backend batches across a bounded worker pool.
//
// For TILT, Compile lowers the circuit to the trapped-ion native gate set
// {RX, RY, RZ, XX}, places qubits, inserts SWAPs (Algorithm 1, with opposing
// swaps), and schedules tape movements (Algorithm 2); Simulate applies the
// Eq. 3–5 noise and timing models. Every study in internal/experiments, and
// every job linqd serves, runs through these backends; there is no second
// execution path.
package tilt

import (
	"context"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/decompose"
	"repro/internal/device"
	"repro/internal/metrics"
	"repro/internal/noise"
	"repro/internal/optimize"
	"repro/internal/pipeline"
	"repro/internal/swapins"
	"repro/internal/workloads"
)

// Circuit is a gate-list quantum circuit. Build one with NewCircuit and the
// Apply* methods (ApplyH, ApplyCNOT, ApplyCP, ApplyCCX, ...).
type Circuit = circuit.Circuit

// Gate is a single quantum operation.
type Gate = circuit.Gate

// Benchmark is a generated workload with its Table II metadata.
type Benchmark = workloads.Benchmark

// Device is a TILT machine specification: chain length and head size.
type Device = device.TILT

// NoiseParams carries every constant of the Eq. 3–5 noise/timing models.
type NoiseParams = noise.Params

// CompileResult is a compiled TILT program: the native and physical circuits,
// the tape schedule, the swap/move statistics of Fig. 6 and Table III, and
// the per-pass timing records.
type CompileResult = core.CompileResult

// Pass is one stage of the compiler pipeline. Implement it (or wrap a
// function with NewPass) to inject custom compilation stages through
// WithPasses and WithExtraPass.
type Pass = pipeline.Pass

// PassState is the shared compilation state a pipeline threads through its
// passes: circuit, mappings, schedule, device, and noise model.
type PassState = pipeline.PassState

// PassTiming records one executed pass: wall-clock time and gate-count
// deltas. Table III's t_swap/t_move are the PassInsertSwaps and PassSchedule
// records.
type PassTiming = pipeline.PassTiming

// PassObserver receives pass lifecycle events during compilation
// (WithPassObserver) — the hook for tracing, metrics, and progress
// reporting.
type PassObserver = pipeline.Observer

// PassObserverFuncs adapts plain functions to PassObserver; nil fields are
// skipped.
type PassObserverFuncs = pipeline.ObserverFuncs

// Pipeline executes compiler passes in order over one PassState, with
// per-pass timing, observation, and cancellation between passes.
type Pipeline = pipeline.Pipeline

// Stock pass names, in Fig. 4 toolflow order — the anchors WithExtraPass
// accepts and the names PassTiming records carry.
const (
	PassDecompose   = pipeline.NameDecompose
	PassOptimize    = pipeline.NameOptimize
	PassPlace       = pipeline.NamePlace
	PassInsertSwaps = pipeline.NameInsertSwaps
	PassSchedule    = pipeline.NameSchedule
)

// NewPipeline returns a pipeline over the given passes for direct,
// backend-free use; most callers instead pass WithPasses/WithExtraPass to
// NewTILT and let the backend drive the pipeline. Drive it with a state from
// NewPassState:
//
//	st := tilt.NewPassState(c, tilt.Device{NumIons: 64, HeadSize: 16}, tilt.DefaultNoise())
//	timings, err := tilt.NewPipeline(tilt.StockPasses()...).Run(ctx, st)
func NewPipeline(passes ...Pass) *Pipeline { return pipeline.New(passes...) }

// NewPassState returns a compilation state for a direct Pipeline.Run over
// the circuit.
func NewPassState(c *Circuit, dev Device, p NoiseParams) *PassState {
	return pipeline.NewState(c, dev, p)
}

// NewPass wraps a function as a named custom Pass.
func NewPass(name string, run func(ctx context.Context, s *PassState) error) Pass {
	return pipeline.NewPass(name, run)
}

// DecomposePass returns the stock native-gate lowering pass.
func DecomposePass() Pass { return pipeline.Decompose() }

// OptimizePass returns the stock peephole-optimization pass.
func OptimizePass() Pass { return pipeline.Optimize() }

// PlacePass returns the stock initial-placement pass for the strategy.
func PlacePass(s Placement) Pass { return pipeline.Place(s) }

// SwapInsertPass returns the stock swap-insertion pass (Algorithm 1 when ins
// is LinQInserter(); nil means LinQInserter()).
func SwapInsertPass(ins Inserter, opt SwapOptions) Pass { return pipeline.InsertSwaps(ins, opt) }

// SchedulePass returns the stock tape-movement scheduling pass
// (Algorithm 2).
func SchedulePass() Pass { return pipeline.ScheduleTape() }

// StockPasses returns the stock LinQ pass list for the given options —
// the starting point for reordered or extended WithPasses pipelines. With no
// options it is decompose → place → insert-swaps → schedule under the paper
// defaults; WithOptimize adds the optimize pass after decompose.
func StockPasses(opts ...Option) []Pass {
	return core.DefaultPasses(newConfig(opts).core)
}

// MetricsRegistry is the telemetry registry behind WithMetrics: a
// dependency-free set of named atomic counters, gauges, and latency
// histograms with a Prometheus text-exposition writer (WritePrometheus).
// Share one registry across backends, the runner, and the jobs layer to get
// a single scrapeable view of the whole serving stack.
type MetricsRegistry = metrics.Registry

// NewMetricsRegistry returns an empty telemetry registry for WithMetrics.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// SwapOptions tunes swap insertion: MaxSwapLen, Alpha (the Eq. 1 lookahead
// discount), and the lookahead window.
type SwapOptions = swapins.Options

// OptimizeStats reports peephole-optimizer eliminations (the
// TILTStats.OptStats field): merged rotations, cancelled self-inverse
// pairs, and dropped identities.
type OptimizeStats = optimize.Stats

// NewCircuit returns an empty circuit over n qubits.
func NewCircuit(n int) *Circuit { return circuit.New(n) }

// DefaultNoise returns the calibrated noise parameters (README,
// "Calibration and substitutions").
func DefaultNoise() NoiseParams { return noise.Default() }

// TwoQubitGateCount returns the circuit's two-qubit gate count at the CNOT
// level — Table II's counting convention.
func TwoQubitGateCount(c *Circuit) int { return decompose.TwoQubitGateCount(c) }

// Benchmarks returns the six Table II workloads in paper order:
// ADDER, BV, QAOA, RCS, QFT, SQRT.
func Benchmarks() []Benchmark { return workloads.All() }

// BenchmarkByName returns one Table II workload by its paper name.
func BenchmarkByName(name string) (Benchmark, error) { return workloads.ByName(name) }

// BenchmarkADDER returns the 64-qubit Cuccaro ripple-carry adder.
func BenchmarkADDER() Benchmark { return workloads.Adder() }

// BenchmarkBV returns the 64-qubit Bernstein–Vazirani circuit.
func BenchmarkBV() Benchmark { return workloads.BV() }

// BenchmarkQAOA returns the 64-qubit, 10-round MaxCut QAOA ansatz.
func BenchmarkQAOA() Benchmark { return workloads.QAOA() }

// BenchmarkRCS returns the 8×8-grid random circuit sampling workload.
func BenchmarkRCS() Benchmark { return workloads.RCS() }

// BenchmarkQFT returns the 64-qubit quantum Fourier transform.
func BenchmarkQFT() Benchmark { return workloads.QFT() }

// BenchmarkSQRT returns the 78-qubit Grover-search kernel standing in for
// the ScaffCC sqrt benchmark (README, "Calibration and substitutions").
func BenchmarkSQRT() Benchmark { return workloads.SQRT() }

// GHZ returns an n-qubit GHZ-state preparation circuit, a minimal
// entangling workload for quick starts.
func GHZ(n int) Benchmark { return workloads.GHZ(n) }

// BenchmarkVQE returns a hardware-efficient VQE ansatz (§III-C class).
func BenchmarkVQE(n, layers int, seed int64) Benchmark { return workloads.VQE(n, layers, seed) }

// BenchmarkIsing returns a trotterized transverse-field Ising evolution
// (§III-C class).
func BenchmarkIsing(n, steps int, jdt, hdt float64) Benchmark {
	return workloads.Ising(n, steps, jdt, hdt)
}

// BenchmarkSurfaceCode returns tiled distance-3 surface-code syndrome
// extraction (§III-C QEC class): 17 qubits per patch.
func BenchmarkSurfaceCode(patches, rounds int) Benchmark {
	return workloads.SurfaceCodePatches(patches, rounds)
}
