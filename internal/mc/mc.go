// Package mc is a Monte-Carlo trajectory simulator that cross-validates the
// analytic success-rate model of internal/sim by sampling it. An Engine
// samples the event list of a sim.Program (per noisy gate, its Eq. 3/4
// error probability and repetitions), the list whose product is sim's
// LogSuccess; the sampling is this package's own, and sim's reference tests
// hold the shared list to an independent walk of the schedule bit for bit.
//
// Two estimators are provided:
//
//   - CleanProbability reports the fraction of shots in which no event
//     fired. Its expectation is exactly exp(LogSuccess), so agreement within
//     sampling error checks the analytic fold and the sampler against each
//     other.
//
//   - StateFidelity additionally injects a uniform random Pauli on the
//     gate's qubits whenever an event fires and measures |<ψ_ideal|ψ_noisy>|²
//     on the statevector simulator (practical up to ~16 qubits). This treats
//     the Eq. 4 error as a depolarizing channel, the standard reading of a
//     gate infidelity, and gives a physical (not just combinatorial) check.
//
// Both estimators run on one bounded worker pool: shots are split into
// fixed-size shards, each shard draws from its own RNG stream derived from
// (seed, shard index), and shard statistics are merged in shard order — so
// estimates are bit-identical for any worker count and any interleaving.
// Estimate runs both over one pool, so the clean-probability shards
// overlap the statevector work. Build an Engine once to amortize the
// program's preparation across sweeps over shots and seeds.
//
// StateFidelity costs about one ideal pass plus the suffixes of the shots
// that err, not shots × gates. A shot's error draws never depend on the
// state, so each shot first draws all of them — per event, per repetition,
// one Float64 and, on a hit, one Intn(3) per gate qubit, the same RNG
// order as a gate-by-gate replay — and records them as (event, qubit,
// Pauli). Each call evolves the ideal state once and keeps a copy of it
// before every ⌈√N⌉-th of its N events. A shot that drew no error adds the
// ideal state's self-fidelity, computed once; one that did copies the
// checkpoint at or before its first error and replays from there,
// applying each recorded Pauli right after its event's gate. Both are
// bit-identical to replaying every gate from |0…0⟩: up to the first error
// a replay performs exactly the ideal pass's arithmetic in the same order,
// so it reaches the checkpoint's amplitudes (and, in a clean shot, the
// ideal state itself) bit for bit, and from there the same operations
// follow. The checkpoints of one call are held in a single buffer capped
// at checkpointBytes (16 MiB): when ⌈√N⌉ of them would not fit, the stride
// widens until they do.
//
// Because the draws never touch a statevector, StateFidelity runs in three
// phases per wave of shards, one shard per worker (see run):
//
//  1. Each shard of the wave draws its shots' errors from its own stream.
//     In the first wave the ideal pass (with its checkpoints) and any
//     clean-probability shards run alongside.
//  2. The wave's errored shots replay in parallel across the workers, each
//     writing its fidelity into that shot's slot.
//  3. The slots are merged with Welford in shot order within each shard,
//     and the shards in shard order.
//
// A single errored shard therefore still spreads its replays over every
// core, and a call's draw and fidelity buffers stay O(workers × shardSize)
// whatever the shot count.
package mc

//lint:deterministic-package

import (
	"context"
	"math"
	"math/rand"
	"time"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/noise"
	"repro/internal/qsim"
	"repro/internal/schedule"
	"repro/internal/sim"
)

// MaxStateFidelityIons bounds StateFidelity's statevector width.
const MaxStateFidelityIons = 16

// shardSize is the number of shots per RNG shard. It is a fixed constant —
// not a function of the worker count — so the shard decomposition, and with
// it every estimate, is identical no matter how many workers run the pool.
const shardSize = 256

// cancelStride is how many shots a clean-probability shard or an error draw
// runs between context checks. A replay checks once before it starts.
const cancelStride = 64

// gateEvent is one event of the program's list with its gate resolved.
type gateEvent struct {
	gate circuit.Gate
	p    float64 // error probability per application
	reps int     // 3 for SWAP, 1 otherwise
}

// Engine is a compiled Monte-Carlo workload: a program's event list,
// reusable across any number of CleanProbability / StateFidelity calls
// (sweeps over shots and seeds do not prepare the program again).
type Engine struct {
	evs     []gateEvent
	ions    int
	workers int
	// obs, when set, is called once per completed shard and estimator with
	// the shard's shot count and busy time (WithShardObserver).
	obs func(shots int, elapsed time.Duration)
}

// EngineOption configures an Engine.
type EngineOption func(*Engine)

// WithWorkers bounds the worker pool (default: GOMAXPROCS). Values below 1
// fall back to the default. The worker count never changes the estimates,
// only the wall-clock time.
func WithWorkers(n int) EngineOption {
	return func(e *Engine) { e.workers = n }
}

// WithShardObserver registers fn to be called once per estimator for every
// successfully completed shard, with that shard's shot count and busy time
// — the hook the telemetry layer uses to meter Monte-Carlo throughput. A
// clean-probability shard's busy time is its wall-clock time; a
// statevector shard's is its draws plus its replays, summed over the
// workers that ran them. Shards run concurrently, so fn must be safe for
// concurrent use. The observer never affects the estimates.
func WithShardObserver(fn func(shots int, elapsed time.Duration)) EngineOption {
	return func(e *Engine) { e.obs = fn }
}

// NewEngine prepares the program (sim.Prepare: noise, device and schedule
// validated, the schedule walked once) and builds its engine.
func NewEngine(c *circuit.Circuit, sched *schedule.Schedule, dev device.TILT, p noise.Params, opts ...EngineOption) (*Engine, error) {
	prog, err := sim.Prepare(context.TODO(), c, sched, dev, p)
	if err != nil {
		return nil, err
	}
	return FromProgram(prog, opts...), nil
}

// FromProgram builds the engine of a prepared program: one gateEvent per
// event of its list, with the gate it applies.
func FromProgram(prog *sim.Program, opts ...EngineOption) *Engine {
	c := prog.Circuit()
	e := &Engine{ions: prog.Ions(), evs: make([]gateEvent, len(prog.Events()))}
	for i, ev := range prog.Events() {
		e.evs[i] = gateEvent{gate: c.Gate(ev.Gate), p: ev.P, reps: ev.Reps}
	}
	for _, o := range opts {
		o(e)
	}
	return e
}

// shardSeed derives the RNG seed of one shard from the caller's seed via a
// splitmix64-style mix, so shard streams are decorrelated and depend only on
// (seed, shard index) — never on worker identity or scheduling order.
func shardSeed(seed int64, shard int) int64 {
	z := uint64(seed) + (uint64(shard)+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// shardShots returns how many of the batch's shots fall in one shard (a
// shard is identified only by its RNG stream, not by a shot offset).
func shardShots(shots, shard int) int {
	if rem := shots - shard*shardSize; rem < shardSize {
		return rem
	}
	return shardSize
}

// Estimates holds the results of one Estimate call. State and StateStderr
// stay zero unless the call asked for the statevector estimate.
type Estimates struct {
	Clean, CleanStderr float64
	State, StateStderr float64
}

// Estimate runs CleanProbability and, when withState is set,
// StateFidelity over the same shots and seed in one call. Both estimators
// share one worker pool, so the clean-probability shards fill the gaps the
// statevector phases leave; each estimate is bit-identical to the
// corresponding single-estimator call.
func (e *Engine) Estimate(ctx context.Context, shots int, seed int64, withState bool) (Estimates, error) {
	return e.estimate(ctx, shots, seed, true, withState)
}

// CleanProbability estimates the probability that a scheduled execution
// completes with zero error events, over the given number of shots. The
// returned uncertainty is the Wilson score interval half-width (z = 1), so
// it stays strictly positive even when every shot lands on the same side —
// finite shots never justify a zero-width error bar.
func (e *Engine) CleanProbability(ctx context.Context, shots int, seed int64) (estimate, stderr float64, err error) {
	est, err := e.estimate(ctx, shots, seed, true, false)
	return est.Clean, est.CleanStderr, err
}

// StateFidelity estimates the average state fidelity |<ψ_ideal|ψ_noisy>|²
// under depolarizing-style error injection: when a gate's error event fires,
// a uniformly random non-identity Pauli is applied to each of the gate's
// qubits after the ideal gate. Practical for chains up to
// MaxStateFidelityIons. The returned uncertainty is the standard error of
// the mean from the unbiased (n−1) sample variance, accumulated with
// Welford's algorithm per shard and merged in shard order.
//
// Each shot draws its errors before touching a statevector, adds the
// precomputed ideal self-fidelity when it drew none, and otherwise replays
// only from the ideal checkpoint at or before its first error (see the
// package comment for why this is bit-identical to a full replay).
func (e *Engine) StateFidelity(ctx context.Context, shots int, seed int64) (estimate, stderr float64, err error) {
	est, err := e.estimate(ctx, shots, seed, false, true)
	return est.State, est.StateStderr, err
}

// checkpointBytes caps the memory of one StateFidelity call's ideal-state
// checkpoints. At 16 ions a state is 1 MiB, so the cap leaves at least 16.
const checkpointBytes = 16 << 20

// checkpointStride returns the number of events between ideal-state
// checkpoints for a stream of n events over dim amplitudes: ⌈√n⌉, which
// balances checkpoint count against the longest replayed gap, widened when
// that many checkpoints would exceed checkpointBytes.
func checkpointStride(n, dim int) int {
	stride := max(1, int(math.Ceil(math.Sqrt(float64(n)))))
	maxCheckpoints := max(1, checkpointBytes/(dim*16)) // 16 bytes per complex128
	return max(stride, (n+maxCheckpoints-1)/maxCheckpoints)
}

// pauliError is one drawn error: Pauli paulis[pauli] on qubit right after
// the gate of event.
type pauliError struct {
	event, qubit, pauli int
}

// paulis indexes the injected Paulis by the rng.Intn(3) draw.
var paulis = [3]qsim.Matrix2{qsim.MatX(), qsim.MatY(), qsim.MatZ()}

// drawErrors appends one shot's errors to buf in event order, drawing from
// rng exactly as a gate-by-gate replay does: per event, per repetition, one
// Float64, and on a hit one Intn(3) per gate qubit.
func (e *Engine) drawErrors(rng *rand.Rand, buf []pauliError) []pauliError {
	for i, ev := range e.evs {
		for r := 0; r < ev.reps; r++ {
			if rng.Float64() < ev.p {
				for _, q := range ev.gate.Qubits {
					buf = append(buf, pauliError{event: i, qubit: q, pauli: rng.Intn(3)})
				}
			}
		}
	}
	return buf
}

// welford accumulates a running mean and sum of squared deviations (M2).
// Per-shard accumulators merge with Chan et al.'s parallel combination, so
// the sharded result matches a serial pass up to the fixed merge order.
type welford struct {
	n    int64
	mean float64
	m2   float64
}

func (w *welford) add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

func (w *welford) merge(o welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = o
		return
	}
	n := w.n + o.n
	d := o.mean - w.mean
	w.mean += d * float64(o.n) / float64(n)
	w.m2 += o.m2 + d*d*float64(w.n)*float64(o.n)/float64(n)
	w.n = n
}

// sampleVariance returns the unbiased (n−1) sample variance.
func (w *welford) sampleVariance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// wilsonHalfWidth returns the half-width of the z = 1 Wilson score interval
// for a binomial proportion p over n trials. Unlike the Wald standard error
// sqrt(p(1-p)/n), it is strictly positive at p = 0 and p = 1.
func wilsonHalfWidth(p float64, n int) float64 {
	nf := float64(n)
	const z = 1.0
	return (z / (1 + z*z/nf)) * math.Sqrt(p*(1-p)/nf+z*z/(4*nf*nf))
}
