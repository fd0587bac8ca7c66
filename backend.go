package tilt

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/decompose"
	"repro/internal/device"
	"repro/internal/lru"
	"repro/internal/mc"
	"repro/internal/optimize"
	"repro/internal/pipeline"
	"repro/internal/qccd"
	"repro/internal/sim"
	"repro/internal/tracing"
)

// noCopy triggers go vet's copylocks check when a struct embedding it is
// copied by value. It has no runtime effect.
type noCopy struct{}

// Lock and Unlock make noCopy a sync.Locker, which is what vet keys on.
func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// Backend is the unified entry point every architecture implements: TILT
// (the LinQ pipeline), the QCCD baseline, and the ideal fully connected
// trapped-ion device. Compile lowers a logical circuit to a backend-specific
// Artifact; Simulate evaluates that artifact under the backend's noise and
// timing models. Both honor context cancellation, so batch sweeps
// (runner.Run) and service endpoints can abandon long jobs.
//
// Construct backends with NewTILT, NewQCCD, or NewIdealTI and the With*
// functional options.
type Backend interface {
	// Name identifies the backend ("TILT", "QCCD", "IdealTI").
	Name() string
	// Compile lowers the circuit for this backend. The artifact is only
	// meaningful to the backend that produced it.
	Compile(ctx context.Context, c *Circuit) (*Artifact, error)
	// Simulate evaluates a compiled artifact and reports unified metrics.
	Simulate(ctx context.Context, a *Artifact) (*Result, error)
}

// Artifact is a compiled program, ready for simulation on the backend that
// produced it.
//
// An Artifact must be passed by pointer, never copied: it embeds the
// synchronization for the backend's Monte-Carlo cache, and a by-value copy
// would silently fork that cache (go vet's copylocks check flags copies).
type Artifact struct {
	noCopy noCopy //nolint:unused // vet copylocks guard

	// Backend is the producing backend's Name.
	Backend string
	// Circuit is the logical input circuit.
	Circuit *Circuit
	// Native is the input lowered to the trapped-ion native gate set
	// {RX, RY, RZ, XX} (logical qubits; present for every backend).
	Native *Circuit
	// Compile holds the full LinQ compilation (TILT backend only).
	Compile *CompileResult
	// Mapped is the native circuit with the initial placement applied
	// (IdealTI backend only).
	Mapped *Circuit

	// cfg is the resolved configuration the artifact was compiled under;
	// Simulate reuses it so device width and noise stay consistent.
	cfg config

	// via and inner are set only on pool-owned wrapper artifacts: via
	// records which fan-out member produced the compilation and inner is
	// the member's own artifact, so PoolBackend.Simulate routes back to
	// the same endpoint without ever mutating the member's artifact (which
	// may be shared through a compile cache).
	via   *poolMember
	inner *Artifact

	// mcStats caches the finished Monte-Carlo estimates: (shots, seed) are
	// fixed per backend, so repeated Simulate calls on one artifact do not
	// rerun the batch. The engine itself is not kept, so a cached artifact
	// holds no event stream or statevector. (Sweeps over shots or seeds
	// build an mc.Engine directly.)
	mcMu    sync.Mutex
	mcStats *MCStats
}

// Result is the unified metrics type every backend returns: success rate,
// timing, and gate census, plus backend-specific statistics in exactly one
// of the TILT/QCCD fields.
type Result struct {
	// Backend is the producing backend's Name.
	Backend string
	// SuccessRate is exp(LogSuccess); it underflows to 0 for very deep
	// circuits — use LogSuccess for comparisons.
	SuccessRate float64
	// LogSuccess is the natural log of the success probability.
	LogSuccess float64
	// ExecTimeUs is the estimated execution time in microseconds.
	ExecTimeUs float64
	// Gate census. TwoQubitGates excludes SWAPs.
	OneQubitGates int
	TwoQubitGates int
	SwapGates     int
	// MeanTwoQubitFidelity averages the Eq. 4 fidelity over all two-qubit
	// gate applications (SWAPs count three times).
	MeanTwoQubitFidelity float64

	// TILT carries tape-architecture statistics (TILT backend only).
	TILT *TILTStats
	// QCCD carries trap-architecture statistics (QCCD backend only).
	QCCD *QCCDStats
	// MC carries Monte-Carlo cross-check estimates (TILT backend only,
	// and only when the backend was built WithShots).
	MC *MCStats
	// Cache snapshots the backend's compile-cache counters (TILT backend
	// only, and only when the backend was built WithCompileCache).
	Cache *CacheStats
}

// CacheStats snapshots a backend's content-addressed compile cache at
// Simulate time: cumulative hits and misses across the backend's lifetime,
// plus the current entry count.
type CacheStats struct {
	Hits    int64
	Misses  int64
	Entries int
}

// MCStats reports the Monte-Carlo error-injection estimates of one simulated
// artifact. CleanProbability is the fraction of trajectory shots with zero
// error events; its expectation equals the analytic SuccessRate, so the two
// agreeing within a few CleanStderr cross-validates the whole schedule→error
// bookkeeping. StateFidelity (chains of ≤16 ions only; see HasStateFidelity)
// injects random Paulis on error events and measures |<ψ_ideal|ψ_noisy>|² on
// the statevector simulator. Estimates are deterministic for a fixed
// (Shots, Seed) and bit-identical across worker counts.
type MCStats struct {
	Shots int
	Seed  int64
	// CleanProbability ± CleanStderr; the uncertainty is the z = 1 Wilson
	// score half-width, strictly positive on finite shots.
	CleanProbability float64
	CleanStderr      float64
	// StateFidelity ± StateFidelityStderr (unbiased sample standard error
	// of the mean); valid only when HasStateFidelity is set.
	StateFidelity       float64
	StateFidelityStderr float64
	HasStateFidelity    bool
}

// TILTStats reports the TILT backend's compile and shuttle statistics
// (the Fig. 6 and Table III metrics).
type TILTStats struct {
	Device        Device
	SwapCount     int
	OpposingSwaps int
	Moves         int
	DistSpacings  int
	DistUm        float64
	// Passes records every compiler pass that ran: wall-clock time and
	// gate-count deltas, in execution order.
	Passes []PassTiming
	// TSwap and TMove are the wall-clock compile times of the swap
	// insertion and tape-scheduling phases.
	//
	// Deprecated: aliases for the insert-swaps and schedule entries of
	// Passes, kept because they are part of the result JSON.
	TSwap time.Duration
	TMove time.Duration
	// OptStats reports peephole-optimizer eliminations (zero unless the
	// backend was built WithOptimize).
	OptStats optimize.Stats
}

// OpposingRatio returns OpposingSwaps/SwapCount (0 when no swaps).
func (s *TILTStats) OpposingRatio() float64 {
	if s.SwapCount == 0 {
		return 0
	}
	return float64(s.OpposingSwaps) / float64(s.SwapCount)
}

// QCCDStats reports the QCCD backend's shuttle-primitive census for the
// winning capacity of the sweep.
type QCCDStats struct {
	Capacity  int
	EdgeSwaps int
	Splits    int
	Merges    int
	Hops      int
}

// Execute compiles and simulates in one call on any backend.
func Execute(ctx context.Context, b Backend, c *Circuit) (*Result, error) {
	a, err := b.Compile(ctx, c)
	if err != nil {
		return nil, err
	}
	return b.Simulate(ctx, a)
}

// checkArtifact validates that the artifact was produced by backend name.
func checkArtifact(a *Artifact, name string) error {
	if a == nil {
		return fmt.Errorf("tilt: %s.Simulate: nil artifact", name)
	}
	if a.Backend != name {
		return fmt.Errorf("tilt: %s.Simulate: artifact compiled by %s", name, a.Backend)
	}
	return nil
}

// TILTBackend compiles circuits with the LinQ pass pipeline and simulates
// them on a Trapped-Ion Linear-Tape device (the paper's proposed
// architecture). The pass list is customizable (WithPasses, WithExtraPass),
// observable (WithPassObserver), and compilation can be memoized behind a
// content-addressed cache (WithCompileCache).
type TILTBackend struct {
	cfg config
	// cache memoizes compiled artifacts by Circuit.Fingerprint (nil unless
	// the backend was built WithCompileCache). The backend's configuration
	// is fixed at construction, so the fingerprint alone keys the artifact.
	cache *lru.Cache[string, *Artifact]
}

// NewTILT returns a TILT backend. With no options it targets a head-16
// device whose chain length matches each circuit's width, with program-order
// placement, the LinQ inserter, and default noise.
func NewTILT(opts ...Option) *TILTBackend {
	b := &TILTBackend{cfg: newConfig(opts)}
	if b.cfg.cacheSize > 0 {
		b.cache = lru.New[string, *Artifact](b.cfg.cacheSize)
	}
	return b
}

// Name implements Backend.
func (b *TILTBackend) Name() string { return "TILT" }

// Compile implements Backend: the stock decompose → place → insert swaps →
// schedule pass pipeline, or the custom pass list the backend was built
// with. When the backend has a compile cache and an identical circuit
// (by Fingerprint) was already compiled, the cached artifact is returned
// without recompiling.
func (b *TILTBackend) Compile(ctx context.Context, c *Circuit) (*Artifact, error) {
	mx := b.cfg.mx
	// When the context carries a trace span (jobs.Manager's execution
	// context, or a caller's ContextWithSpan), the compile and each pass
	// become child spans; with no span every tracing call below no-ops.
	ctx, span := tracing.StartSpan(ctx, "compile")
	var key string
	if b.cache != nil {
		key = c.Fingerprint()
		if a, ok := b.cache.Get(key); ok {
			mx.cacheHits.With(b.Name()).Inc()
			span.SetAttr("cache", "hit")
			span.End()
			return a, nil
		}
		mx.cacheMisses.With(b.Name()).Inc()
		span.SetAttr("cache", "miss")
	}
	start := time.Now()
	cfg := b.cfg.resolved(c)
	passes, err := cfg.passList()
	if err != nil {
		span.EndErr(err)
		return nil, err
	}
	obs := cfg.observer
	if span != nil {
		obs = &passSpanObserver{inner: cfg.observer, parent: span}
	}
	cr, err := core.CompileWith(ctx, c, cfg.core, passes, obs)
	if err != nil {
		span.EndErr(err)
		return nil, err
	}
	defer span.End()
	mx.compiles.With(b.Name()).Inc()
	mx.compileSec.With(b.Name()).Observe(time.Since(start).Seconds())
	for _, pt := range cr.Timings {
		mx.passSec.With(pt.Pass).Observe(pt.Wall.Seconds())
	}
	a := &Artifact{
		Backend: b.Name(),
		Circuit: c,
		Native:  cr.Native,
		Compile: cr,
		cfg:     cfg,
	}
	if b.cache != nil {
		// A cached artifact outlives this call, so it must not alias the
		// caller's mutable circuit: a later c.Apply* would silently poison
		// the Circuit field of every future hit for this fingerprint.
		a.Circuit = c.Clone()
		b.cache.Add(key, a)
	}
	return a, nil
}

// Simulate implements Backend: the Eq. 3–5 noise and timing models over the
// compiled schedule.
func (b *TILTBackend) Simulate(ctx context.Context, a *Artifact) (*Result, error) {
	if err := checkArtifact(a, b.Name()); err != nil {
		return nil, err
	}
	ctx, span := tracing.StartSpan(ctx, "simulate")
	start := time.Now()
	sr, err := a.Compile.Simulate(ctx, a.cfg.core)
	if err != nil {
		span.EndErr(err)
		return nil, err
	}
	res := resultFromSim(b.Name(), sr)
	if a.cfg.shots > 0 {
		mcStats, err := runMC(ctx, a)
		if err != nil {
			span.EndErr(err)
			return nil, err
		}
		res.MC = mcStats
	}
	defer span.End()
	res.TILT = &TILTStats{
		Device:        a.cfg.core.Device,
		SwapCount:     a.Compile.SwapCount,
		OpposingSwaps: a.Compile.OpposingSwaps,
		Moves:         a.Compile.Moves(),
		DistSpacings:  a.Compile.DistSpacings(),
		DistUm:        float64(a.Compile.DistSpacings()) * a.cfg.core.NoiseParams().IonSpacingUm,
		Passes:        a.Compile.Timings,
		TSwap:         a.Compile.PassTime(pipeline.NameInsertSwaps),
		TMove:         a.Compile.PassTime(pipeline.NameSchedule),
		OptStats:      a.Compile.OptStats,
	}
	if b.cache != nil {
		hits, misses := b.cache.Stats()
		res.Cache = &CacheStats{Hits: hits, Misses: misses, Entries: b.cache.Len()}
	}
	b.cfg.mx.simulateSec.With(b.Name()).Observe(time.Since(start).Seconds())
	return res, nil
}

// runMC runs the Monte-Carlo cross-check over a compiled TILT artifact: the
// clean-trajectory probability always, and the statevector fidelity estimate
// when the chain fits the dense simulator, both in one pool of MC workers.
func runMC(ctx context.Context, a *Artifact) (*MCStats, error) {
	a.mcMu.Lock()
	cached := a.mcStats
	a.mcMu.Unlock()
	if cached != nil {
		out := *cached // copy so callers can't alias each other's Result
		return &out, nil
	}

	eng, err := mc.NewEngine(a.Compile.Physical, a.Compile.Schedule,
		a.cfg.core.Device, a.cfg.core.NoiseParams(),
		mc.WithWorkers(a.cfg.mcWorkers),
		mc.WithShardObserver(func(shots int, elapsed time.Duration) {
			a.cfg.mx.mcShots.Add(int64(shots))
			a.cfg.mx.mcShardSec.Observe(elapsed.Seconds())
		}))
	if err != nil {
		return nil, err
	}
	withState := a.cfg.core.Device.NumIons <= mc.MaxStateFidelityIons
	est, err := eng.Estimate(ctx, a.cfg.shots, a.cfg.seed, withState)
	if err != nil {
		return nil, err
	}
	stats := &MCStats{Shots: a.cfg.shots, Seed: a.cfg.seed,
		CleanProbability: est.Clean, CleanStderr: est.CleanStderr,
		StateFidelity: est.State, StateFidelityStderr: est.StateStderr,
		HasStateFidelity: withState}
	// Concurrent first calls may both compute; estimates are bit-identical,
	// so last-write-wins is safe. Errors (cancellation) are never cached.
	a.mcMu.Lock()
	a.mcStats = stats
	a.mcMu.Unlock()
	out := *stats
	return &out, nil
}

// CacheStats snapshots the compile cache's counters. ok is false when the
// backend was built without WithCompileCache. This is the live
// cache-hit-rate sample jobs.Manager.PoolLoads (and so GET /v1/backends)
// reports per pool.
func (b *TILTBackend) CacheStats() (CacheStats, bool) {
	if b.cache == nil {
		return CacheStats{}, false
	}
	hits, misses := b.cache.Stats()
	return CacheStats{Hits: hits, Misses: misses, Entries: b.cache.Len()}, true
}

// TuneResult records one MaxSwapLen trial of the Fig. 7 sweep.
type TuneResult struct {
	MaxSwapLen int
	SwapCount  int
	Moves      int
	LogSuccess float64
}

// AutoTune implements the paper's "iterate the LinQ procedure to find the
// best choice" (§IV-C): it compiles the circuit with the stock passes at
// every candidate MaxSwapLen and returns the trials plus the index of the
// best one by success rate. An empty candidate list sweeps HeadSize−1 down
// to HeadSize/2.
func (b *TILTBackend) AutoTune(ctx context.Context, c *Circuit, candidates []int) ([]TuneResult, int, error) {
	cfg := b.cfg.resolved(c).core
	if len(candidates) == 0 {
		for l := cfg.Device.HeadSize - 1; l >= cfg.Device.HeadSize/2 && l >= 1; l-- {
			candidates = append(candidates, l)
		}
	}
	results := make([]TuneResult, 0, len(candidates))
	best := -1
	for _, l := range candidates {
		trial := cfg
		trial.Swap.MaxSwapLen = l
		cr, err := core.CompileWith(ctx, c, trial, nil, nil)
		if err != nil {
			return nil, -1, fmt.Errorf("tilt: AutoTune at MaxSwapLen=%d: %w", l, err)
		}
		sr, err := cr.Simulate(ctx, trial)
		if err != nil {
			return nil, -1, fmt.Errorf("tilt: AutoTune at MaxSwapLen=%d: %w", l, err)
		}
		results = append(results, TuneResult{
			MaxSwapLen: l,
			SwapCount:  cr.SwapCount,
			Moves:      cr.Moves(),
			LogSuccess: sr.LogSuccess,
		})
		if best == -1 || sr.LogSuccess > results[best].LogSuccess {
			best = len(results) - 1
		}
	}
	return results, best, nil
}

// QCCDBackend simulates circuits on the linear-topology QCCD trapped-ion
// baseline (Murali et al., §VI-B), sweeping trap capacities and reporting
// the best configuration, as the paper's comparison does.
type QCCDBackend struct {
	cfg config
}

// NewQCCD returns a QCCD backend. The device width follows WithDevice's
// chain length (or each circuit's width); the capacity sweep defaults to
// the paper's 15–35 range and can be pinned with WithCapacities.
func NewQCCD(opts ...Option) *QCCDBackend {
	return &QCCDBackend{cfg: newConfig(opts)}
}

// Name implements Backend.
func (b *QCCDBackend) Name() string { return "QCCD" }

// Compile implements Backend: QCCD routing happens during simulation, so
// compilation is the native-gate lowering only.
func (b *QCCDBackend) Compile(ctx context.Context, c *Circuit) (*Artifact, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	_, span := tracing.StartSpan(ctx, "compile")
	defer span.End()
	start := time.Now()
	cfg := b.cfg.resolved(c)
	a := &Artifact{
		Backend: b.Name(),
		Circuit: c,
		Native:  decompose.ToNative(c),
		cfg:     cfg,
	}
	b.cfg.mx.compiles.With(b.Name()).Inc()
	b.cfg.mx.compileSec.With(b.Name()).Observe(time.Since(start).Seconds())
	return a, nil
}

// Simulate implements Backend: run the capacity sweep concurrently and
// report the best configuration.
func (b *QCCDBackend) Simulate(ctx context.Context, a *Artifact) (*Result, error) {
	if err := checkArtifact(a, b.Name()); err != nil {
		return nil, err
	}
	ctx, span := tracing.StartSpan(ctx, "simulate")
	start := time.Now()
	best, err := qccd.RunBestCapacity(ctx, a.Native, a.cfg.core.Device.NumIons,
		a.cfg.capacities, a.cfg.core.NoiseParams())
	if err != nil {
		span.EndErr(err)
		return nil, err
	}
	defer span.End()
	b.cfg.mx.simulateSec.With(b.Name()).Observe(time.Since(start).Seconds())
	return &Result{
		Backend:              b.Name(),
		SuccessRate:          best.SuccessRate,
		LogSuccess:           best.LogSuccess,
		ExecTimeUs:           best.ExecTimeUs,
		OneQubitGates:        best.OneQubitGates,
		TwoQubitGates:        best.TwoQubitGates,
		MeanTwoQubitFidelity: best.MeanTwoQubitFidelity,
		QCCD: &QCCDStats{
			Capacity:  best.Capacity,
			EdgeSwaps: best.EdgeSwaps,
			Splits:    best.Splits,
			Merges:    best.Merges,
			Hops:      best.Hops,
		},
	}, nil
}

// IdealTIBackend simulates circuits on an ideal fully connected trapped-ion
// device of the configured chain length — the Fig. 8 upper bound: no swaps,
// no tape moves, no shuttle heating.
type IdealTIBackend struct {
	cfg config
}

// NewIdealTI returns an ideal trapped-ion backend.
func NewIdealTI(opts ...Option) *IdealTIBackend {
	return &IdealTIBackend{cfg: newConfig(opts)}
}

// Name implements Backend.
func (b *IdealTIBackend) Name() string { return "IdealTI" }

// Compile implements Backend: native-gate lowering plus the greedy initial
// placement (the Eq. 3 gate time still grows with ion separation, so the
// placement matters even without routing).
func (b *IdealTIBackend) Compile(ctx context.Context, c *Circuit) (*Artifact, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	_, span := tracing.StartSpan(ctx, "compile")
	start := time.Now()
	cfg := b.cfg.resolved(c)
	native, mapped, err := core.PlaceIdeal(c, cfg.core.Device.NumIons)
	if err != nil {
		span.EndErr(err)
		return nil, err
	}
	defer span.End()
	b.cfg.mx.compiles.With(b.Name()).Inc()
	b.cfg.mx.compileSec.With(b.Name()).Observe(time.Since(start).Seconds())
	return &Artifact{
		Backend: b.Name(),
		Circuit: c,
		Native:  native,
		Mapped:  mapped,
		cfg:     cfg,
	}, nil
}

// Simulate implements Backend.
func (b *IdealTIBackend) Simulate(ctx context.Context, a *Artifact) (*Result, error) {
	if err := checkArtifact(a, b.Name()); err != nil {
		return nil, err
	}
	ctx, span := tracing.StartSpan(ctx, "simulate")
	start := time.Now()
	sr, err := sim.SimulateIdeal(ctx, a.Mapped,
		device.IdealTI{NumIons: a.cfg.core.Device.NumIons}, a.cfg.core.NoiseParams())
	if err != nil {
		span.EndErr(err)
		return nil, err
	}
	defer span.End()
	b.cfg.mx.simulateSec.With(b.Name()).Observe(time.Since(start).Seconds())
	return resultFromSim(b.Name(), sr), nil
}

// resultFromSim lifts a sim.Result into the unified Result.
func resultFromSim(backend string, sr *sim.Result) *Result {
	return &Result{
		Backend:              backend,
		SuccessRate:          sr.SuccessRate,
		LogSuccess:           sr.LogSuccess,
		ExecTimeUs:           sr.ExecTimeUs,
		OneQubitGates:        sr.OneQubitGates,
		TwoQubitGates:        sr.TwoQubitGates,
		SwapGates:            sr.SwapGates,
		MeanTwoQubitFidelity: sr.MeanTwoQubitFidelity,
	}
}
