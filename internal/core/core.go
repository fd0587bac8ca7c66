// Package core implements LinQ, the paper's compiler + simulator toolflow
// for the TILT architecture (Fig. 4): native-gate decomposition, initial
// qubit placement, swap insertion, tape-movement scheduling, and noisy
// simulation. CompileWith runs the passes as one straight-line sequence —
// decompose → (optimize) → place → insert-swaps → schedule — so every phase
// carries a per-pass timing record (Table III's t_swap/t_move fall out of
// the insert-swaps and schedule records) and can be observed pass by pass
// through an internal/pipeline Observer.
package core

//lint:deterministic-package

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/circuit"
	"repro/internal/decompose"
	"repro/internal/device"
	"repro/internal/mapping"
	"repro/internal/noise"
	"repro/internal/optimize"
	"repro/internal/pipeline"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/swapins"
)

// Config selects the device, noise model, and compiler strategies for one
// LinQ run. The zero value of each optional field picks the paper default.
type Config struct {
	// Device is the target TILT machine (required).
	Device device.TILT
	// Noise parameterizes the Eq. 3–5 models. The zero value means
	// noise.Default().
	Noise *noise.Params
	// Placement picks the initial-mapping heuristic (default greedy).
	Placement mapping.Strategy
	// Inserter picks the swap-insertion strategy; nil means swapins.LinQ.
	Inserter swapins.Inserter
	// Swap carries swap-insertion options (MaxSwapLen, Alpha, Lookahead).
	Swap swapins.Options
	// Optimize enables the peephole optimizer on the native circuit before
	// swap insertion (rotation merging, self-inverse cancellation).
	Optimize bool
}

// NoiseParams resolves the config's noise model (Default when unset).
func (cfg Config) NoiseParams() noise.Params {
	if cfg.Noise != nil {
		return *cfg.Noise
	}
	return noise.Default()
}

func (cfg Config) inserter() swapins.Inserter {
	if cfg.Inserter != nil {
		return cfg.Inserter
	}
	return swapins.LinQ{}
}

// CompileResult is a fully compiled TILT program: the native and physical
// circuits, mappings, schedule, swap-insertion and optimizer statistics,
// plus the per-pass timing records.
type CompileResult struct {
	// Device is the target TILT machine.
	Device device.TILT

	// Input is the logical circuit that was compiled (read-only).
	Input *circuit.Circuit
	// Native is the input lowered to the trapped-ion native gate set
	// {RX, RY, RZ, XX} over logical qubits (after the optimizer, when it
	// ran).
	Native *circuit.Circuit
	// InitialMapping and FinalMapping are the logical→physical assignments
	// before and after swap insertion.
	InitialMapping *mapping.Mapping
	FinalMapping   *mapping.Mapping
	// Physical is the executable circuit over tape slots, with SWAPs.
	Physical *circuit.Circuit
	// Schedule is the tape itinerary for Physical.
	Schedule *schedule.Schedule

	// SwapCount and OpposingSwaps are the Fig. 6 swap-insertion statistics.
	SwapCount     int
	OpposingSwaps int
	// OptStats reports peephole-optimizer eliminations (zero unless
	// Config.Optimize).
	OptStats optimize.Stats

	// Timings records every executed pass in order: wall-clock time plus
	// gate counts before and after (Table III's t_swap and t_move are the
	// insert-swaps and schedule records; see PassTime).
	Timings []pipeline.PassTiming
}

// PassTime returns the wall-clock time of the first pass with the given name
// (zero when no such pass ran).
func (r *CompileResult) PassTime(name string) time.Duration {
	for _, t := range r.Timings {
		if t.Pass == name {
			return t.Wall
		}
	}
	return 0
}

// Moves returns the scheduled tape-move count.
func (r *CompileResult) Moves() int { return r.Schedule.Moves }

// DistSpacings returns the scheduled tape travel in ion spacings.
func (r *CompileResult) DistSpacings() int { return r.Schedule.Dist }

// CompileWith compiles a logical circuit for the configured device, running
// the paper's Fig. 4 passes in order: decompose → (optimize, when
// Config.Optimize) → place → insert-swaps → schedule. The input circuit may
// contain any gate kind the decomposer understands (including Toffolis).
// Each pass is timed into CompileResult.Timings and reported to every
// non-nil observer. Cancellation of ctx is observed between passes and
// inside the swap-insertion and scheduling inner loops, and comes back
// unwrapped; any other pass error is wrapped with the pass name.
func CompileWith(ctx context.Context, c *circuit.Circuit, cfg Config, obs ...pipeline.Observer) (*CompileResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := cfg.Device.Validate(); err != nil {
		return nil, err
	}
	if c.NumQubits() > cfg.Device.NumIons {
		return nil, fmt.Errorf("core: circuit width %d exceeds chain %d",
			c.NumQubits(), cfg.Device.NumIons)
	}
	r := &CompileResult{Device: cfg.Device, Input: c, Timings: make([]pipeline.PassTiming, 0, 5)}
	// work is the most refined circuit so far (input, native, then
	// physical); each record counts its gates around the pass.
	work := c
	var err error
	// pass runs one phase unless an earlier one failed, leaving the first
	// failure in err.
	pass := func(name string, run func() error) {
		if err != nil {
			return
		}
		if err = ctx.Err(); err != nil {
			return
		}
		t := pipeline.PassTiming{Pass: name, Index: len(r.Timings), GatesBefore: work.Len()}
		for _, o := range obs {
			if o != nil {
				o.PassStarted(name, t.Index)
			}
		}
		start := time.Now() //lint:deterministic-exempt pass wall-clock only feeds the timing records and observers, never the compiled program
		err = run()
		t.Wall = time.Since(start) //lint:deterministic-exempt timing-only; the compiled program is untouched
		t.GatesAfter = work.Len()
		for _, o := range obs {
			if o != nil {
				o.PassFinished(t, err)
			}
		}
		switch {
		case err == nil:
			r.Timings = append(r.Timings, t)
		case !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded):
			err = fmt.Errorf("pipeline: pass %q: %w", name, err)
		}
	}

	pass(pipeline.NameDecompose, func() error {
		r.Native = decompose.ToNative(c)
		work = r.Native
		return nil
	})
	if cfg.Optimize {
		pass(pipeline.NameOptimize, func() error {
			r.Native, r.OptStats = optimize.Run(r.Native)
			work = r.Native
			return nil
		})
	}
	pass(pipeline.NamePlace, func() error {
		m0, err := mapping.Initial(r.Native, cfg.Device.NumIons, cfg.Placement)
		r.InitialMapping = m0
		return err
	})
	pass(pipeline.NameInsertSwaps, func() error {
		res, err := cfg.inserter().Insert(ctx, r.Native, r.InitialMapping, cfg.Device, cfg.Swap)
		if err != nil {
			return err
		}
		r.Physical = res.Physical
		r.InitialMapping = res.InitialMapping
		r.FinalMapping = res.FinalMapping
		r.SwapCount = res.SwapCount
		r.OpposingSwaps = res.OpposingSwaps
		work = r.Physical
		return nil
	})
	pass(pipeline.NameSchedule, func() error {
		sched, err := schedule.Tape(ctx, r.Physical, cfg.Device)
		r.Schedule = sched
		return err
	})
	if err != nil {
		return nil, err
	}
	return r, nil
}

// Simulate evaluates a compiled program under the config's noise model.
func (r *CompileResult) Simulate(ctx context.Context, cfg Config) (*sim.Result, error) {
	return sim.Simulate(ctx, r.Physical, r.Schedule, cfg.Device, cfg.NoiseParams())
}

// PlaceIdeal lowers the circuit to the native gate set and applies the
// greedy initial placement over a numIons-long chain — the compile step of
// the ideal fully connected trapped-ion device (the Fig. 8 upper bound):
// no swaps or moves. It returns both the native circuit (logical qubits) and
// its placed counterpart (chain positions). The placement matters even
// without routing because the Eq. 3 gate time — and hence the Γτ error term
// — grows with the ion separation on the chain. With no routing, the
// placement objective is exactly the weighted distance sum the greedy
// heuristic minimizes; program order (built for sweep-style routing) has no
// advantage here.
func PlaceIdeal(c *circuit.Circuit, numIons int) (native, mapped *circuit.Circuit, err error) {
	native = decompose.ToNative(c)
	m0, err := mapping.Initial(native, numIons, mapping.GreedyPlacement)
	if err != nil {
		return nil, nil, err
	}
	mapped = circuit.New(numIons)
	mapped.Grow(native.Len())
	var buf [2]int // native gates act on at most two qubits
	for _, g := range native.Gates() {
		qs := buf[:len(g.Qubits)]
		for i, q := range g.Qubits {
			qs[i] = m0.Phys(q)
		}
		mapped.MustAdd(g.Kind, g.Theta, qs...)
	}
	return native, mapped, nil
}
