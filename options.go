package tilt

import (
	"repro/internal/core"
	"repro/internal/mapping"
	"repro/internal/metrics"
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
