// Package pipeline is the vocabulary of the LinQ toolflow's passes (paper
// Fig. 4): the stock pass names, the per-pass timing record, and the
// Observer hook that receives pass lifecycle events. internal/core runs the
// passes themselves, as one straight-line compile.
package pipeline

import "time"

// Stock pass names, in Fig. 4 toolflow order. Timing records carry these
// strings, so metric consumers (Table III, the -passes flags) can select
// phases without depending on pass positions.
const (
	NameDecompose   = "decompose"
	NameOptimize    = "optimize"
	NamePlace       = "place"
	NameInsertSwaps = "insert-swaps"
	NameSchedule    = "schedule"
)

// PassTiming records one executed pass: its wall-clock time and the gate
// count of the working circuit before and after. Table III's t_swap and
// t_move are the Wall fields of the insert-swaps and schedule records.
type PassTiming struct {
	// Pass is the pass's name; Index is its position in the compile.
	Pass  string
	Index int
	// Wall is the pass's wall-clock execution time.
	Wall time.Duration
	// GatesBefore and GatesAfter count the gates of the working circuit
	// (the input, then the native circuit, then the physical one) around
	// the pass; their difference is the pass's gate-count delta (negative
	// for eliminations, positive for insertions such as SWAPs).
	GatesBefore int
	GatesAfter  int
}

// GateDelta returns GatesAfter − GatesBefore.
func (t PassTiming) GateDelta() int { return t.GatesAfter - t.GatesBefore }

// Observer receives pass lifecycle events during one compile — the hook for
// tracing and per-pass measurement. Calls are sequential within one compile
// (the passes run on one goroutine); an observer shared by concurrent
// compiles receives interleaved calls and must be safe for concurrent use.
// The TILT backend tees pass events into per-pass child spans of the
// compile span (one observer per Compile, so the sequential-within-one-
// compile guarantee is what makes that tee lock-free).
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
