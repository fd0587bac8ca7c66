package mc

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/qsim"
)

// run is one estimate call: the clean-probability shards, the statevector
// estimate, or both, on one pool of workers. The statevector estimate walks
// the shards in waves of one shard per worker, three phases per wave (see
// the package comment). Tasks are claimed in index order, so a single
// worker runs the clean shards first, then the ideal pass, then each
// wave's draws and replays.
type run struct {
	e       *Engine
	ctx     context.Context
	shots   int
	seed    int64
	nShards int
	workers []worker

	cleanShards int          // clean-probability shards still to run in phase 1
	cleanShots  atomic.Int64 // clean shots counted so far; integer sums commute

	idealPending bool // the ideal pass still has to run in phase 1
	stride       int
	checkpoints  []complex128
	ideal        *qsim.State
	cleanFid     float64
	wave         []waveShard // the current wave's shards, in shard order
	first        int         // shard index of wave[0]
	replays      []replay    // the current wave's errored shots
	agg          welford

	// The current phase: tasks [0, n) of kind phase, claimed through next.
	phase  int
	n      int
	next   atomic.Int64
	wg     sync.WaitGroup
	failed atomic.Bool
	err    error // the first task error; written once, under failed
}

// Task kinds of a phase.
const (
	drawPhase   = iota // clean shards, then the ideal pass, then the wave's draws
	replayPhase        // the wave's errored shots
)

// worker is one pool worker's reusable scratch.
type worker struct {
	rng *rand.Rand  // clean-shard and draw stream, reseeded per shard
	st  *qsim.State // replay statevector
}

// waveShard is one shard of the current wave.
type waveShard struct {
	count   int
	errs    []pauliError  // every errored shot's errors, in shot order
	errored []erroredShot // the shard's errored shots, in shot order
	fid     [shardSize]float64
	busy    atomic.Int64 // ns spent on the shard's draws and replays
}

// erroredShot is one shot that drew errors: errs[lo:hi] of its shard.
type erroredShot struct {
	shot, lo, hi int
}

// replay names one errored shot of the current wave: wave[slot].errored[i].
type replay struct {
	slot, i int
}

// estimate is the one runner behind CleanProbability, StateFidelity and
// Estimate.
func (e *Engine) estimate(ctx context.Context, shots int, seed int64, clean, state bool) (Estimates, error) {
	if shots < 1 {
		return Estimates{}, fmt.Errorf("mc: shots %d < 1", shots)
	}
	if state && e.ions > MaxStateFidelityIons {
		return Estimates{}, fmt.Errorf("mc: StateFidelity supports ≤%d ions, got %d", MaxStateFidelityIons, e.ions)
	}
	nShards := (shots + shardSize - 1) / shardSize
	workers := e.workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if !state {
		workers = min(workers, nShards) // one task per shard
	}
	r := &run{e: e, ctx: ctx, shots: shots, seed: seed, nShards: nShards,
		workers: make([]worker, min(workers, shots))}
	if clean {
		r.cleanShards = nShards
	}
	if !state {
		if err := r.runPhase(drawPhase, r.cleanShards); err != nil {
			return Estimates{}, err
		}
		return r.cleanEstimates(), nil
	}

	dim := 1 << uint(e.ions)
	r.stride = checkpointStride(len(e.evs), dim)
	r.checkpoints = make([]complex128, (len(e.evs)+r.stride-1)/r.stride*dim)
	r.ideal = qsim.NewState(e.ions)
	r.idealPending = true
	r.wave = make([]waveShard, min(len(r.workers), nShards))
	for r.first = 0; r.first < nShards; r.first += len(r.wave) {
		r.wave = r.wave[:min(cap(r.wave), nShards-r.first)]
		n := len(r.wave) + r.cleanShards
		if r.idealPending {
			n++
		}
		if err := r.runPhase(drawPhase, n); err != nil {
			return Estimates{}, err
		}
		r.cleanShards, r.idealPending = 0, false

		r.replays = r.replays[:0]
		for slot := range r.wave {
			for i := range r.wave[slot].errored {
				r.replays = append(r.replays, replay{slot, i})
			}
		}
		if err := r.runPhase(replayPhase, len(r.replays)); err != nil {
			return Estimates{}, err
		}
		r.mergeWave()
	}
	var est Estimates
	if clean {
		est = r.cleanEstimates()
	}
	est.State, est.StateStderr = r.agg.mean, math.Sqrt(r.agg.sampleVariance()/float64(r.agg.n))
	return est, nil
}

// cleanEstimates returns the clean-probability estimate with its Wilson
// half-width.
func (r *run) cleanEstimates() Estimates {
	est := float64(r.cleanShots.Load()) / float64(r.shots)
	return Estimates{Clean: est, CleanStderr: wilsonHalfWidth(est, r.shots)}
}

// runPhase runs tasks [0, n) of one phase on up to one goroutine per
// worker, each claiming the lowest unclaimed index, and returns the first
// task error. After an error no further task starts.
func (r *run) runPhase(phase, n int) error {
	r.phase, r.n = phase, n
	r.next.Store(0)
	workers := min(len(r.workers), n)
	if workers == 1 {
		r.work(0)
		return r.err
	}
	r.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go r.workAndDone(w)
	}
	r.wg.Wait()
	return r.err
}

// workAndDone is work on a pool goroutine of the current phase.
func (r *run) workAndDone(w int) {
	defer r.wg.Done()
	r.work(w)
}

// work runs tasks of the current phase on worker w until none is left or
// one has failed.
func (r *run) work(w int) {
	// A worker allocates its replay statevector on its first replay and
	// reuses it for the rest of the call.
	if wk := &r.workers[w]; wk.st == nil && r.phase == replayPhase {
		wk.st = qsim.NewState(r.e.ions)
	}
	for !r.failed.Load() {
		i := int(r.next.Add(1)) - 1
		if i >= r.n {
			return
		}
		var err error
		if r.phase == replayPhase {
			err = r.replay(w, i)
		} else {
			err = r.drawTask(w, i)
		}
		// The CAS admits exactly one goroutine, so err has a single
		// writer; the phase's end orders it before the caller's read.
		if err != nil && r.failed.CompareAndSwap(false, true) {
			r.err = err
		}
	}
}

// drawTask runs task i of a draw phase: a clean-probability shard, the
// ideal pass, or one wave shard's draws, in that index order.
func (r *run) drawTask(w, i int) error {
	if i < r.cleanShards {
		return r.cleanShard(w, i)
	}
	i -= r.cleanShards
	if r.idealPending {
		if i == 0 {
			return r.idealPass()
		}
		i--
	}
	return r.draw(w, i)
}

// shardRNG returns worker w's generator positioned at the start of shard's
// stream. Reseeding in place gives the same stream as a fresh
// rand.New(rand.NewSource(seed)) without a new 5 KB source per shard.
func (r *run) shardRNG(w, shard int) *rand.Rand {
	seed := shardSeed(r.seed, shard)
	wk := &r.workers[w]
	if wk.rng == nil {
		wk.rng = rand.New(rand.NewSource(seed))
	} else {
		wk.rng.Seed(seed)
	}
	return wk.rng
}

// cleanShard counts one shard's shots that draw no error event.
func (r *run) cleanShard(w, shard int) error {
	start := time.Now() //lint:deterministic-exempt shard wall-clock only feeds the WithShardObserver metrics hook, never the estimate
	rng := r.shardRNG(w, shard)
	count := shardShots(r.shots, shard)
	n := int64(0)
shotLoop:
	for s := 0; s < count; s++ {
		if s%cancelStride == 0 {
			if err := r.ctx.Err(); err != nil {
				return err
			}
		}
		for _, ev := range r.e.evs {
			for rep := 0; rep < ev.reps; rep++ {
				if rng.Float64() < ev.p {
					continue shotLoop
				}
			}
		}
		n++
	}
	r.cleanShots.Add(n)
	if r.e.obs != nil {
		r.e.obs(count, time.Since(start)) //lint:deterministic-exempt observer-only timing; the fidelity estimate is untouched
	}
	return nil
}

// idealPass evolves the ideal state once, copying it before every
// stride-th event, and computes the clean shots' fidelity.
func (r *run) idealPass() error {
	dim := len(r.ideal.Amplitudes())
	for i, ev := range r.e.evs {
		if i%r.stride == 0 {
			if err := r.ctx.Err(); err != nil {
				return err
			}
			copy(r.checkpoints[i/r.stride*dim:], r.ideal.Amplitudes())
		}
		r.ideal.ApplyGate(ev.gate)
	}
	// A clean shot's replay performs the ideal pass's arithmetic in the
	// same order, so its final state — and its fidelity — is this, bit for
	// bit.
	r.cleanFid = r.ideal.FidelityWith(r.ideal)
	return r.ctx.Err()
}

// draw records the errors of every shot of wave shard slot.
func (r *run) draw(w, slot int) error {
	start := time.Now() //lint:deterministic-exempt shard wall-clock only feeds the WithShardObserver metrics hook, never the estimate
	ws := &r.wave[slot]
	rng := r.shardRNG(w, r.first+slot)
	ws.count = shardShots(r.shots, r.first+slot)
	ws.errs, ws.errored = ws.errs[:0], ws.errored[:0]
	for s := 0; s < ws.count; s++ {
		if s%cancelStride == 0 {
			if err := r.ctx.Err(); err != nil {
				return err
			}
		}
		lo := len(ws.errs)
		ws.errs = r.e.drawErrors(rng, ws.errs)
		if len(ws.errs) > lo {
			ws.errored = append(ws.errored, erroredShot{shot: s, lo: lo, hi: len(ws.errs)})
		}
	}
	ws.busy.Store(int64(time.Since(start))) //lint:deterministic-exempt observer-only timing; the fidelity estimate is untouched
	return nil
}

// replay evolves one errored shot from the ideal checkpoint at or before
// its first error, applying each recorded Pauli right after its event's
// gate, and stores the shot's fidelity in its slot.
func (r *run) replay(w, i int) error {
	if err := r.ctx.Err(); err != nil {
		return err
	}
	start := time.Now() //lint:deterministic-exempt shard wall-clock only feeds the WithShardObserver metrics hook, never the estimate
	ws := &r.wave[r.replays[i].slot]
	shot := ws.errored[r.replays[i].i]
	errs := ws.errs[shot.lo:shot.hi]
	st := r.workers[w].st
	dim := len(st.Amplitudes())
	c := errs[0].event / r.stride
	st.SetAmplitudes(r.checkpoints[c*dim : (c+1)*dim])
	next := 0
	for ev := c * r.stride; ev < len(r.e.evs); ev++ {
		st.ApplyGate(r.e.evs[ev].gate)
		for ; next < len(errs) && errs[next].event == ev; next++ {
			st.ApplyMat2(paulis[errs[next].pauli], errs[next].qubit)
		}
	}
	ws.fid[shot.shot] = st.FidelityWith(r.ideal)
	ws.busy.Add(int64(time.Since(start))) //lint:deterministic-exempt observer-only timing; the fidelity estimate is untouched
	return nil
}

// mergeWave folds the wave's shots into the aggregate: Welford in shot
// order within each shard, shards in shard order, so the estimate is
// bit-identical for any worker count. The observer sees each shard once,
// with the time its draws and replays took.
func (r *run) mergeWave() {
	for slot := range r.wave {
		ws := &r.wave[slot]
		var w welford
		next := 0
		for s := 0; s < ws.count; s++ {
			if next < len(ws.errored) && ws.errored[next].shot == s {
				w.add(ws.fid[s])
				next++
			} else {
				w.add(r.cleanFid)
			}
		}
		r.agg.merge(w)
		if r.e.obs != nil {
			r.e.obs(ws.count, time.Duration(ws.busy.Load()))
		}
	}
}
