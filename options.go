package tilt

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mapping"
	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/swapins"
)

// Inserter is a swap-insertion strategy. Use LinQInserter (the paper's
// Algorithm 1) or StochasticInserter (the §VI-A randomized baseline).
type Inserter = swapins.Inserter

// Placement selects the initial-mapping heuristic.
type Placement = mapping.Strategy

// The initial-placement strategies.
const (
	IdentityPlacement     = mapping.IdentityPlacement
	GreedyPlacement       = mapping.GreedyPlacement
	ProgramOrderPlacement = mapping.ProgramOrderPlacement
)

// LinQInserter returns the paper's Algorithm 1 swap inserter with opposing
// swaps — the default.
func LinQInserter() Inserter { return swapins.LinQ{} }

// StochasticInserter returns the §VI-A baseline inserter
// (Qiskit-StochasticSwap-style randomized routing).
func StochasticInserter(trials int, seed int64) Inserter {
	return swapins.Stochastic{Trials: trials, Seed: seed}
}

// config carries every knob a backend constructor accepts. The zero value of
// each unset field resolves to the paper default at Compile time.
type config struct {
	core core.Config
	// capacities overrides the QCCD capacity sweep (nil = paper's 15–35).
	capacities []int
	// shots enables the Monte-Carlo cross-check on the TILT backend
	// (0 = analytic model only).
	shots int
	// seed is the Monte-Carlo RNG seed (WithSeed).
	seed int64
	// mcWorkers bounds the Monte-Carlo worker pool (0 = GOMAXPROCS).
	mcWorkers int
	// passes replaces the stock compiler pass list (WithPasses; nil means
	// the stock LinQ pipeline for the configuration).
	passes []pipeline.Pass
	// extras are custom passes injected into the pass list (WithExtraPass).
	extras []extraPass
	// observer receives pass lifecycle events (WithPassObserver).
	observer pipeline.Observer
	// cacheSize bounds the compile cache (WithCompileCache; 0 = disabled).
	cacheSize int
	// mx holds the resolved instrument handles for the hot paths, so
	// Compile/Simulate never take the registry lock. They book into the
	// WithMetrics registry, or else into a private one.
	mx *backendInstruments
}

// backendInstruments holds the pre-resolved metric instruments the backends
// record into. All families are shared across backends and distinguished by
// a backend (or pass) label.
type backendInstruments struct {
	compiles    *metrics.CounterVec   // linq_compiles_total{backend}
	cacheHits   *metrics.CounterVec   // linq_compile_cache_hits_total{backend}
	cacheMisses *metrics.CounterVec   // linq_compile_cache_misses_total{backend}
	compileSec  *metrics.HistogramVec // linq_compile_seconds{backend}
	simulateSec *metrics.HistogramVec // linq_simulate_seconds{backend}
	passSec     *metrics.HistogramVec // linq_pass_seconds{pass}
	mcShots     *metrics.Counter      // linq_mc_shots_total
	mcShardSec  *metrics.Histogram    // linq_mc_shard_seconds
}

// newBackendInstruments resolves (get-or-create) every backend family in
// the registry; a nil registry means a private one.
func newBackendInstruments(r *metrics.Registry) *backendInstruments {
	if r == nil {
		r = metrics.NewRegistry()
	}
	return &backendInstruments{
		compiles: r.CounterVec("linq_compiles_total",
			"Compilations executed (cache misses and uncached compiles).", "backend"),
		cacheHits: r.CounterVec("linq_compile_cache_hits_total",
			"Compile-cache hits by circuit fingerprint.", "backend"),
		cacheMisses: r.CounterVec("linq_compile_cache_misses_total",
			"Compile-cache misses by circuit fingerprint.", "backend"),
		compileSec: r.HistogramVec("linq_compile_seconds",
			"Wall-clock compile latency.", nil, "backend"),
		simulateSec: r.HistogramVec("linq_simulate_seconds",
			"Wall-clock simulate latency.", nil, "backend"),
		passSec: r.HistogramVec("linq_pass_seconds",
			"Wall-clock time of one compiler pass.", nil, "pass"),
		mcShots: r.Counter("linq_mc_shots_total",
			"Monte-Carlo trajectory shots completed."),
		mcShardSec: r.Histogram("linq_mc_shard_seconds",
			"Wall-clock time of one Monte-Carlo shard.", nil),
	}
}

// extraPass is one WithExtraPass injection: pass runs right after the pass
// named after ("" = append at the end of the pipeline).
type extraPass struct {
	after string
	pass  pipeline.Pass
}

// passList materializes the compiler pass list: the custom list from
// WithPasses (or the stock LinQ pipeline), with every WithExtraPass
// injection spliced in after its anchor.
func (c config) passList() ([]pipeline.Pass, error) {
	passes := c.passes
	if passes == nil {
		passes = core.DefaultPasses(c.core)
	} else {
		passes = append([]pipeline.Pass(nil), passes...)
	}
	for _, e := range c.extras {
		if e.after == "" {
			passes = append(passes, e.pass)
			continue
		}
		idx := -1
		for i, p := range passes {
			if p.Name() == e.after {
				idx = i
				break
			}
		}
		if idx == -1 {
			return nil, fmt.Errorf("tilt: WithExtraPass: no pass named %q in the pipeline", e.after)
		}
		passes = append(passes[:idx+1], append([]pipeline.Pass{e.pass}, passes[idx+1:]...)...)
	}
	return passes, nil
}

// Option configures a backend. Options are shared across backends; each
// backend reads the fields that apply to it (a TILT backend ignores
// WithCapacities, the QCCD backend ignores WithInserter, and so on).
type Option func(*config)

// newConfig applies the options over the paper-default configuration.
func newConfig(opts []Option) config {
	cfg := config{
		core: core.Config{
			Device:    Device{HeadSize: 16},
			Placement: mapping.ProgramOrderPlacement,
			Inserter:  swapins.LinQ{},
		},
		mx: newBackendInstruments(nil),
	}
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// resolved fills circuit-dependent defaults: a zero chain length targets a
// chain exactly as long as the circuit is wide.
func (c config) resolved(circ *Circuit) config {
	if c.core.Device.NumIons == 0 {
		c.core.Device.NumIons = circ.NumQubits()
	}
	return c
}

// WithDevice targets a numIons-long chain under a headSize-laser execution
// zone. A zero numIons matches each circuit's width at Compile time. The
// QCCD and IdealTI backends use numIons as the device's qubit count and
// ignore headSize.
func WithDevice(numIons, headSize int) Option {
	return func(c *config) {
		c.core.Device = Device{NumIons: numIons, HeadSize: headSize}
	}
}

// WithNoise overrides the Eq. 3–5 noise and timing constants (default:
// DefaultNoise).
func WithNoise(p NoiseParams) Option {
	return func(c *config) { c.core.Noise = &p }
}

// WithInserter selects the swap-insertion strategy (default: LinQInserter).
func WithInserter(ins Inserter) Option {
	return func(c *config) { c.core.Inserter = ins }
}

// WithSwapOptions tunes swap insertion: MaxSwapLen, the Eq. 1 lookahead
// discount Alpha, and the lookahead window.
func WithSwapOptions(o SwapOptions) Option {
	return func(c *config) { c.core.Swap = o }
}

// WithMaxSwapLen bounds the span of inserted SWAPs (the Fig. 7 parameter);
// 0 means HeadSize−1.
func WithMaxSwapLen(l int) Option {
	return func(c *config) { c.core.Swap.MaxSwapLen = l }
}

// WithPlacement selects the initial-mapping heuristic (default:
// ProgramOrderPlacement).
func WithPlacement(s Placement) Option {
	return func(c *config) { c.core.Placement = s }
}

// WithOptimize enables the peephole optimizer on the native circuit before
// swap insertion (rotation merging, self-inverse cancellation).
func WithOptimize() Option {
	return func(c *config) { c.core.Optimize = true }
}

// WithCapacities pins the QCCD backend's trap-capacity sweep to an explicit
// list instead of the paper's 15–35 range.
func WithCapacities(caps ...int) Option {
	return func(c *config) { c.capacities = caps }
}

// WithShots enables the Monte-Carlo error-injection cross-check on the TILT
// backend: Simulate additionally runs the given number of trajectory shots
// through the internal/mc engine and reports the estimates in Result.MC.
// Estimates are deterministic for a fixed seed (WithSeed) and bit-identical
// for any worker count. Zero (the default) skips Monte Carlo entirely.
func WithShots(n int) Option {
	return func(c *config) { c.shots = n }
}

// WithSeed sets the Monte-Carlo RNG seed (default 0). Each shard of shots
// derives its own stream from (seed, shard index), so two runs with the same
// seed and shot count agree bit-for-bit regardless of parallelism.
func WithSeed(s int64) Option {
	return func(c *config) { c.seed = s }
}

// WithMCWorkers bounds the Monte-Carlo worker pool (default: GOMAXPROCS).
// The worker count changes wall-clock time only, never the estimates.
func WithMCWorkers(n int) Option {
	return func(c *config) { c.mcWorkers = n }
}

// WithPasses replaces the TILT compiler's stock pass list with an explicit
// one, so callers can reorder or drop phases (for ablations) or assemble a
// pipeline from scratch. The list must still produce a complete compilation
// — a physical circuit and a schedule — or Compile returns an error naming
// the missing phase. Combine with StockPasses to start from the defaults:
//
//	passes := tilt.StockPasses(tilt.WithOptimize())
//	be := tilt.NewTILT(tilt.WithOptimize(), tilt.WithPasses(passes...))
func WithPasses(passes ...Pass) Option {
	return func(c *config) { c.passes = passes }
}

// WithExtraPass injects a custom pass into the TILT compiler pipeline right
// after the pass named after (use the Pass* name constants; "" appends at
// the end). Compile fails with a descriptive error when no pass with that
// name is in the pipeline. Multiple WithExtraPass options apply in order:
//
//	peephole := tilt.NewPass("my-peephole", func(ctx context.Context, s *tilt.PassState) error {
//		// rewrite s.Native in place
//		return nil
//	})
//	be := tilt.NewTILT(tilt.WithExtraPass(tilt.PassDecompose, peephole))
func WithExtraPass(after string, p Pass) Option {
	return func(c *config) { c.extras = append(c.extras, extraPass{after: after, pass: p}) }
}

// WithPassObserver registers an observer for pass lifecycle events during
// TILT compilation — the hook for tracing, metrics, and progress reporting.
// Use PassObserverFuncs to adapt plain functions.
//
// When the compile context carries a trace span (ContextWithSpan, or a
// jobs.Manager execution), the backend additionally tees the same pass
// events into per-pass child spans; the configured observer still receives
// every call.
//
// Within one Compile the observer's calls are sequential, but a backend
// shared across goroutines (e.g. one backend fanned over a runner batch)
// runs one pipeline per concurrent Compile, so the observer must be safe
// for concurrent use in that setting.
func WithPassObserver(obs PassObserver) Option {
	return func(c *config) { c.observer = obs }
}

// WithMetrics instruments the backend against the given telemetry registry
// (NewMetricsRegistry): compile and simulate latencies, per-pass wall-clock
// histograms, compile-cache hit/miss counters, and Monte-Carlo shard
// throughput all record into shared linq_* metric families. One registry can
// be shared by any number of backends (series carry a backend label) and by
// the runner and jobs layers; expose it with MetricsRegistry.WritePrometheus.
// Without it (or with a nil registry) the backend books into a private
// registry.
func WithMetrics(r *MetricsRegistry) Option {
	return func(c *config) { c.mx = newBackendInstruments(r) }
}

// WithCompileCache bounds a per-backend content-addressed compile cache to n
// artifacts: Compile keys each circuit by Circuit.Fingerprint and returns
// the cached *Artifact when an identical circuit was already compiled on
// this backend, so sweeps that revisit the same circuit×config skip
// recompilation entirely. The backend's configuration is fixed at
// construction, so the fingerprint alone identifies the artifact. Cache
// hit/miss counters are reported in Result.Cache. n <= 0 disables caching
// (the default).
func WithCompileCache(n int) Option {
	return func(c *config) { c.cacheSize = n }
}
