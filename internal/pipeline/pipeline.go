// Package pipeline is the compiler-pass framework behind the LinQ toolflow
// (paper Fig. 4). A Pipeline executes an ordered list of Passes over a shared
// PassState, recording per-pass wall-clock timings and gate-count deltas,
// reporting each pass to an optional Observer, and observing context
// cancellation between passes; the stock passes themselves observe
// cancellation inside their inner loops as well, so a cancelled batch job
// stops mid-pass.
//
// The five LinQ phases — decompose, optimize, place, insert-swaps, schedule —
// are the stock passes (Decompose, Optimize, Place, InsertSwaps,
// ScheduleTape), which internal/core strings into the one pass list every
// TILT compile runs. Each stock pass validates its preconditions and returns
// a descriptive error when sequenced before the state it consumes exists.
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/mapping"
	"repro/internal/optimize"
	"repro/internal/schedule"
)

// PassState is the shared compilation state a Pipeline threads through its
// passes. Passes read the fields produced by their predecessors and write
// the ones they produce; nil fields mean the corresponding phase has not run.
type PassState struct {
	// Device is the target TILT machine (set at construction).
	Device device.TILT

	// Input is the logical circuit handed to the pipeline (read-only).
	Input *circuit.Circuit
	// Native is the input lowered to the trapped-ion native gate set
	// {RX, RY, RZ, XX} over logical qubits (after Decompose; Optimize
	// rewrites it in place).
	Native *circuit.Circuit
	// InitialMapping and FinalMapping are the logical→physical assignments
	// before and after swap insertion.
	InitialMapping *mapping.Mapping
	FinalMapping   *mapping.Mapping
	// Physical is the executable circuit over tape slots, with SWAPs
	// (after InsertSwaps).
	Physical *circuit.Circuit
	// Schedule is the tape itinerary for Physical (after ScheduleTape).
	Schedule *schedule.Schedule

	// SwapCount and OpposingSwaps are the Fig. 6 swap-insertion statistics.
	SwapCount     int
	OpposingSwaps int
	// OptStats reports peephole-optimizer eliminations (zero unless an
	// Optimize pass ran).
	OptStats optimize.Stats
}

// NewState returns a PassState ready for a pipeline run over circuit c.
func NewState(c *circuit.Circuit, dev device.TILT) *PassState {
	return &PassState{Device: dev, Input: c}
}

// GateCount returns the gate count of the most-refined circuit currently in
// the state (Physical, else Native, else Input). Pipeline.Run snapshots it
// around every pass to report gate-count deltas.
func (s *PassState) GateCount() int {
	switch {
	case s.Physical != nil:
		return s.Physical.Len()
	case s.Native != nil:
		return s.Native.Len()
	case s.Input != nil:
		return s.Input.Len()
	}
	return 0
}

// Pass is one stage of the compiler pipeline. Implementations mutate the
// PassState they are given and honor ctx cancellation in long-running loops.
type Pass interface {
	// Name identifies the pass in timings, observers, and errors.
	Name() string
	// Run executes the pass over the shared state.
	Run(ctx context.Context, s *PassState) error
}

// PassTiming records one executed pass: its wall-clock time and the gate
// count of the working circuit before and after. Table III's t_swap and
// t_move are the Wall fields of the insert-swaps and schedule records.
type PassTiming struct {
	// Pass is the pass's Name; Index is its position in the pipeline.
	Pass  string
	Index int
	// Wall is the pass's wall-clock execution time.
	Wall time.Duration
	// GatesBefore and GatesAfter snapshot PassState.GateCount around the
	// pass; their difference is the pass's gate-count delta (negative for
	// eliminations, positive for insertions such as SWAPs).
	GatesBefore int
	GatesAfter  int
}

// GateDelta returns GatesAfter − GatesBefore.
func (t PassTiming) GateDelta() int { return t.GatesAfter - t.GatesBefore }

// Observer receives pass lifecycle events during Pipeline.Run — the hook for
// tracing and per-pass measurement. Calls are sequential within one Run (the
// pipeline is single-threaded); an observer shared by concurrent Runs
// receives interleaved calls and must be safe for concurrent use.
// Implementations must not mutate the state. The TILT backend tees pass
// events into per-pass child spans of the compile span (one observer per
// Compile, so the sequential-within-one-Run guarantee is what makes that tee
// lock-free).
type Observer interface {
	// PassStarted fires immediately before a pass runs.
	PassStarted(name string, index int)
	// PassFinished fires after a pass returns, with its timing record and
	// error (nil on success).
	PassFinished(t PassTiming, err error)
}

// ObserverFuncs adapts plain functions to the Observer interface; nil fields
// are skipped.
type ObserverFuncs struct {
	Started  func(name string, index int)
	Finished func(t PassTiming, err error)
}

// PassStarted implements Observer.
func (o ObserverFuncs) PassStarted(name string, index int) {
	if o.Started != nil {
		o.Started(name, index)
	}
}

// PassFinished implements Observer.
func (o ObserverFuncs) PassFinished(t PassTiming, err error) {
	if o.Finished != nil {
		o.Finished(t, err)
	}
}

// Pipeline executes passes in order over one PassState.
type Pipeline struct {
	// Passes run front to back.
	Passes []Pass
	// Observer, when non-nil, receives pass lifecycle events.
	Observer Observer
}

// Run executes every pass in order, checking ctx between passes and timing
// each one. It returns the timing records of the passes that completed; on
// error the records cover the passes that finished before the failure. Pass
// errors are wrapped with the pass name; cancellation errors pass through
// unwrapped so callers can compare with errors.Is.
func (p *Pipeline) Run(ctx context.Context, s *PassState) ([]PassTiming, error) {
	if s == nil || s.Input == nil {
		return nil, errors.New("pipeline: nil state or input circuit")
	}
	timings := make([]PassTiming, 0, len(p.Passes))
	for i, pass := range p.Passes {
		if err := ctx.Err(); err != nil {
			return timings, err
		}
		if p.Observer != nil {
			p.Observer.PassStarted(pass.Name(), i)
		}
		before := s.GateCount()
		start := time.Now()
		err := pass.Run(ctx, s)
		t := PassTiming{
			Pass:        pass.Name(),
			Index:       i,
			Wall:        time.Since(start),
			GatesBefore: before,
			GatesAfter:  s.GateCount(),
		}
		if p.Observer != nil {
			p.Observer.PassFinished(t, err)
		}
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return timings, err
			}
			return timings, fmt.Errorf("pipeline: pass %q: %w", pass.Name(), err)
		}
		timings = append(timings, t)
	}
	return timings, nil
}

// Timing returns the first timing record with the given pass name, or false
// when no such pass ran.
func Timing(timings []PassTiming, name string) (PassTiming, bool) {
	for _, t := range timings {
		if t.Pass == name {
			return t, true
		}
	}
	return PassTiming{}, false
}
