// Package render renders compiled TILT programs for humans: an ASCII
// timeline of head positions over the tape, a per-move fidelity-decay
// profile, and a compact program summary. cmd/linq uses it for -v output;
// it is also handy in tests and notebooks for eyeballing schedules.
package render

import (
	"context"
	"fmt"
	"math"
	"strings"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/noise"
	"repro/internal/schedule"
	"repro/internal/sim"
)

// Timeline renders the tape itinerary as one row per head placement: the
// head's covered window drawn over the chain extent, annotated with the
// gates executed there.
//
//	move   1  |####............................|  pos  0, 14 gates
//	move   2  |........####....................|  pos  8,  3 gates
func Timeline(sched *schedule.Schedule, dev device.TILT) string {
	var b strings.Builder
	width := dev.NumIons
	scale := 1
	for width/scale > 64 {
		scale++
	}
	cols := (width + scale - 1) / scale
	fmt.Fprintf(&b, "tape timeline (%d ions, head %d, %d moves; '#' = execution zone",
		dev.NumIons, dev.HeadSize, sched.Moves)
	if scale > 1 {
		fmt.Fprintf(&b, ", 1 column = %d ions", scale)
	}
	b.WriteString(")\n")
	for i, st := range sched.Steps {
		row := make([]byte, cols)
		for j := range row {
			row[j] = '.'
		}
		for q := st.Pos; q < st.Pos+dev.HeadSize && q < width; q++ {
			row[q/scale] = '#'
		}
		fmt.Fprintf(&b, "move %4d  |%s|  pos %3d, %4d gates\n", i+1, row, st.Pos, len(st.Gates))
	}
	return b.String()
}

// FidelityProfile reports, for each head placement, the mean Eq. 4 two-qubit
// gate fidelity at that point in the program — the visible cost of
// accumulated shuttle heating. Steps with no two-qubit gates report 1.
type FidelityProfile struct {
	Step     int
	Pos      int
	Quanta   float64
	MeanFid  float64
	TwoQubit int
}

// Profile computes the per-step fidelity profile of a schedule under the
// given noise parameters by grouping the program's event list (sim.Prepare)
// by placement. It returns nil when the program does not validate.
func Profile(c *circuit.Circuit, sched *schedule.Schedule, dev device.TILT, p noise.Params) []FidelityProfile {
	prog, err := sim.Prepare(context.TODO(), c, sched, dev, p)
	if err != nil {
		return nil
	}
	evs := prog.Events()
	out := make([]FidelityProfile, 0, len(prog.Steps()))
	for i, st := range prog.Steps() {
		var fidSum float64
		var n int
		for ; len(evs) > 0 && evs[0].Step == i; evs = evs[1:] {
			if ev := &evs[0]; c.Gate(ev.Gate).IsTwoQubit() {
				fidSum += float64(ev.Reps) * (1 - ev.P)
				n += ev.Reps
			}
		}
		prof := FidelityProfile{Step: i + 1, Pos: st.Pos, Quanta: st.Quanta, MeanFid: 1, TwoQubit: n}
		if n > 0 {
			prof.MeanFid = fidSum / float64(n)
		}
		out = append(out, prof)
	}
	return out
}

// FormatProfile renders the fidelity profile with a sparkline-style bar per
// step (longer bar = higher mean fidelity; resolution 1e-3 below 1).
func FormatProfile(rows []FidelityProfile) string {
	var b strings.Builder
	b.WriteString("fidelity decay profile (mean 2Q fidelity per head placement)\n")
	for _, r := range rows {
		bar := fidelityBar(r.MeanFid)
		fmt.Fprintf(&b, "move %4d  pos %3d  quanta %7.1f  fid %.6f %s\n",
			r.Step, r.Pos, r.Quanta, r.MeanFid, bar)
	}
	return b.String()
}

// fidelityBar maps fidelity in [0.99, 1] to a 0–20 char bar; anything below
// 0.99 gets a single '!' marker so bad steps stand out.
func fidelityBar(f float64) string {
	if f < 0.99 {
		return "!"
	}
	n := int(math.Round((f - 0.99) / 0.01 * 20))
	if n < 0 {
		n = 0
	}
	if n > 20 {
		n = 20
	}
	return strings.Repeat("=", n)
}

// Summary renders a one-paragraph description of a compiled program: gate
// census, swap share, and move statistics.
func Summary(c *circuit.Circuit, sched *schedule.Schedule, dev device.TILT) string {
	oneQ, twoQ, swaps, measures := 0, 0, 0, 0
	for _, g := range c.Gates() {
		switch {
		case g.Kind == circuit.Measure:
			measures++
		case g.Kind == circuit.SWAP:
			swaps++
		case g.IsTwoQubit():
			twoQ++
		default:
			oneQ++
		}
	}
	maxStep := 0
	for _, st := range sched.Steps {
		if len(st.Gates) > maxStep {
			maxStep = len(st.Gates)
		}
	}
	avg := 0.0
	if len(sched.Steps) > 0 {
		avg = float64(c.Len()) / float64(len(sched.Steps))
	}
	return fmt.Sprintf(
		"program: %d gates (%d 1Q, %d 2Q, %d SWAP, %d measure) on %d ions; "+
			"%d moves covering %d spacings; %.1f gates/placement (max %d)",
		c.Len(), oneQ, twoQ, swaps, measures, dev.NumIons,
		sched.Moves, sched.Dist, avg, maxStep)
}
