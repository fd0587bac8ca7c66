// Package core implements LinQ, the paper's compiler + simulator toolflow
// for the TILT architecture (Fig. 4): native-gate decomposition, initial
// qubit placement, swap insertion, tape-movement scheduling, and noisy
// simulation. Compilation runs on the internal/pipeline pass framework, so
// every phase carries a per-pass timing record (Table III's t_swap/t_move
// fall out of the insert-swaps and schedule records) and callers can swap in
// custom pass lists through CompileWith.
package core

//lint:deterministic-package

import (
	"context"
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

// CompileResult is a fully compiled TILT program with its statistics.
type CompileResult struct {
	// Native is the input lowered to {RX, RY, RZ, XX} (logical qubits).
	Native *circuit.Circuit
	// Physical is the executable circuit over tape slots, with SWAPs.
	Physical *circuit.Circuit
	// Schedule is the tape itinerary for Physical.
	Schedule *schedule.Schedule
	// Swap-insertion statistics (Fig. 6 metrics).
	SwapCount     int
	OpposingSwaps int
	// Mappings before and after swap insertion.
	InitialMapping *mapping.Mapping
	FinalMapping   *mapping.Mapping
	// Timings records every executed pass in order: wall-clock time plus
	// gate counts before and after (Table III's t_swap and t_move are the
	// insert-swaps and schedule records; see PassTime).
	Timings []pipeline.PassTiming
	// OptStats reports peephole-optimizer eliminations (zero unless
	// Config.Optimize was set).
	OptStats optimize.Stats
}

// PassTime returns the wall-clock time of the first pass with the given name
// (zero when no such pass ran).
func (r *CompileResult) PassTime(name string) time.Duration {
	t, _ := pipeline.Timing(r.Timings, name)
	return t.Wall
}

// OpposingRatio returns OpposingSwaps/SwapCount (0 when no swaps).
func (r *CompileResult) OpposingRatio() float64 {
	if r.SwapCount == 0 {
		return 0
	}
	return float64(r.OpposingSwaps) / float64(r.SwapCount)
}

// Moves returns the scheduled tape-move count.
func (r *CompileResult) Moves() int { return r.Schedule.Moves }

// DistSpacings returns the scheduled tape travel in ion spacings.
func (r *CompileResult) DistSpacings() int { return r.Schedule.Dist }

// DefaultPasses returns the stock LinQ pass list for the configuration:
// decompose → (optimize, when Config.Optimize) → place → insert-swaps →
// schedule, the paper's Fig. 4 toolflow.
func DefaultPasses(cfg Config) []pipeline.Pass {
	passes := []pipeline.Pass{pipeline.Decompose()}
	if cfg.Optimize {
		passes = append(passes, pipeline.Optimize())
	}
	return append(passes,
		pipeline.Place(cfg.Placement),
		pipeline.InsertSwaps(cfg.inserter(), cfg.Swap),
		pipeline.ScheduleTape(),
	)
}

// CompileWith runs a pass list over a logical circuit (nil passes means
// DefaultPasses(cfg), the stock decompose → place → insert swaps → schedule
// pipeline), reporting pass lifecycle events to obs when non-nil. The input
// circuit may contain any gate kind the decomposer understands (including
// Toffolis). Cancellation of ctx is observed between passes and inside the
// swap-insertion and scheduling inner loops. The pass list must produce a
// complete compilation — a physical circuit and a schedule — or an error
// naming the missing phase is returned.
func CompileWith(ctx context.Context, c *circuit.Circuit, cfg Config, passes []pipeline.Pass, obs pipeline.Observer) (*CompileResult, error) {
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
	if passes == nil {
		passes = DefaultPasses(cfg)
	}
	st := pipeline.NewState(c, cfg.Device, cfg.NoiseParams())
	p := &pipeline.Pipeline{Passes: passes, Observer: obs}
	timings, err := p.Run(ctx, st)
	if err != nil {
		return nil, err
	}
	if st.Physical == nil || st.Schedule == nil {
		return nil, st.Validate()
	}
	return &CompileResult{
		Native:         st.Native,
		Physical:       st.Physical,
		Schedule:       st.Schedule,
		SwapCount:      st.SwapCount,
		OpposingSwaps:  st.OpposingSwaps,
		InitialMapping: st.InitialMapping,
		FinalMapping:   st.FinalMapping,
		Timings:        timings,
		OptStats:       st.OptStats,
	}, nil
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
