// Extension studies beyond the paper's evaluation section: the §VII scaling
// discussion turned into experiments (sympathetic cooling, single-chain
// scaling limits, modular MUSIQC machines) and ablations of LinQ's design
// choices (placement strategy, Eq. 1 lookahead discount, peephole
// optimization).
package experiments

import (
	"context"
	"fmt"
	"strings"

	tilt "repro"
	"repro/internal/decompose"
	"repro/internal/musiqc"
	"repro/internal/noise"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// CoolingRow is one point of the sympathetic-cooling ablation.
type CoolingRow struct {
	Interval   int // moves between re-cools; 0 = no cooling (paper baseline)
	Moves      int
	LogSuccess float64
}

// CoolingAblation sweeps the sympathetic-cooling interval on the QFT
// workload (§VII: "TILT architectures are compatible with sympathetic
// cooling techniques, which would reduce the heating due to shuttling and
// allow for longer circuits"). Interval 0 disables cooling.
func CoolingAblation(ctx context.Context, head int, intervals []int) ([]CoolingRow, error) {
	if len(intervals) == 0 {
		intervals = []int{0, 64, 32, 16, 8, 4, 1}
	}
	bm, err := workloads.ByName("QFT")
	if err != nil {
		return nil, err
	}
	var rows []CoolingRow
	for _, iv := range intervals {
		p := noise.Default()
		p.CoolingInterval = iv
		be := tilt.NewTILT(tilt.WithDevice(bm.Qubits(), head), tilt.WithNoise(p))
		res, err := tilt.Execute(ctx, be, bm.Circuit)
		if err != nil {
			return nil, fmt.Errorf("cooling ablation interval %d: %w", iv, err)
		}
		rows = append(rows, CoolingRow{Interval: iv, Moves: res.TILT.Moves, LogSuccess: res.LogSuccess})
	}
	return rows, nil
}

// FormatCooling renders the cooling ablation.
func FormatCooling(rows []CoolingRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Sympathetic-cooling ablation — QFT-64, head 16 (interval 0 = no cooling)\n")
	fmt.Fprintf(&b, "%9s %7s %13s\n", "interval", "moves", "success")
	for _, r := range rows {
		fmt.Fprintf(&b, "%9d %7d %13.3e\n", r.Interval, r.Moves, exp(r.LogSuccess))
	}
	return b.String()
}

// ScalingRow is one point of the single-chain scaling study.
type ScalingRow struct {
	Ions       int
	Moves      int
	LogSuccess float64
}

// ScalingStudy grows a single TILT chain under a fixed head and a QAOA
// workload that grows with it, exposing the §VII limit: per-move heating
// scales as √n, so one trap cannot grow indefinitely.
func ScalingStudy(ctx context.Context, head, rounds int, sizes []int) ([]ScalingRow, error) {
	if len(sizes) == 0 {
		sizes = []int{32, 64, 96, 128}
	}
	var rows []ScalingRow
	for _, n := range sizes {
		bm := workloads.QAOAN(n, rounds, 2021)
		res, err := tilt.Execute(ctx, tilt.NewTILT(tilt.WithDevice(n, head)), bm.Circuit)
		if err != nil {
			return nil, fmt.Errorf("scaling study n=%d: %w", n, err)
		}
		rows = append(rows, ScalingRow{Ions: n, Moves: res.TILT.Moves, LogSuccess: res.LogSuccess})
	}
	return rows, nil
}

// FormatScaling renders the scaling study.
func FormatScaling(rows []ScalingRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Single-chain scaling — QAOA, fixed head (heating k = k0*sqrt(n))\n")
	fmt.Fprintf(&b, "%6s %7s %13s %15s\n", "ions", "moves", "success", "log-success")
	for _, r := range rows {
		fmt.Fprintf(&b, "%6d %7d %13.3e %15.2f\n", r.Ions, r.Moves, exp(r.LogSuccess), r.LogSuccess)
	}
	return b.String()
}

// ModularRow compares a monolithic chain to MUSIQC-style module splits for
// one problem size.
type ModularRow struct {
	Qubits        int
	MonolithicLog float64
	TwoModuleLog  float64
	FourModuleLog float64
	TwoCross      int
	FourCross     int
}

// ModularStudy runs the §VII modular-architecture comparison: one chain vs
// two and four photonically linked TILT modules on growing QAOA instances.
func ModularStudy(ctx context.Context, head, rounds int, sizes []int) ([]ModularRow, error) {
	if len(sizes) == 0 {
		sizes = []int{48, 96, 128}
	}
	p := noise.Default()
	var rows []ModularRow
	for _, n := range sizes {
		bm := workloads.QAOAN(n, rounds, 9)
		nat := decompose.ToNative(bm.Circuit)
		row := ModularRow{Qubits: n}

		mono, err := musiqc.Monolithic(ctx, nat, n, head, p)
		if err != nil {
			return nil, fmt.Errorf("modular study n=%d monolithic: %w", n, err)
		}
		row.MonolithicLog = mono

		two, err := musiqc.Run(ctx, nat, musiqc.Spec{
			Modules: 2, IonsPerModule: n/2 + 1, HeadSize: head, Link: musiqc.DefaultLink(),
		}, p)
		if err != nil {
			return nil, fmt.Errorf("modular study n=%d 2-module: %w", n, err)
		}
		row.TwoModuleLog = two.LogSuccess
		row.TwoCross = two.CrossGates

		four, err := musiqc.Run(ctx, nat, musiqc.Spec{
			Modules: 4, IonsPerModule: n/4 + 1, HeadSize: head, Link: musiqc.DefaultLink(),
		}, p)
		if err != nil {
			return nil, fmt.Errorf("modular study n=%d 4-module: %w", n, err)
		}
		row.FourModuleLog = four.LogSuccess
		row.FourCross = four.CrossGates

		rows = append(rows, row)
	}
	return rows, nil
}

// FormatModular renders the modular study.
func FormatModular(rows []ModularRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Modular (MUSIQC) study — QAOA, monolithic vs photonically linked TILT modules\n")
	fmt.Fprintf(&b, "%7s %13s %13s %13s %10s %10s\n",
		"qubits", "monolithic", "2 modules", "4 modules", "cross(2)", "cross(4)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%7d %13.3e %13.3e %13.3e %10d %10d\n",
			r.Qubits, exp(r.MonolithicLog), exp(r.TwoModuleLog), exp(r.FourModuleLog),
			r.TwoCross, r.FourCross)
	}
	return b.String()
}

// HeadRow is one point of the head-size sweep.
type HeadRow struct {
	Head       int
	Swaps      int
	Moves      int
	LogSuccess float64
}

// HeadSizeStudy extends Fig. 8's {16, 32} to a full head-size sweep on one
// benchmark, exposing the cost/benefit curve the AOM size constraint (§I)
// puts a ceiling on.
func HeadSizeStudy(ctx context.Context, benchName string, heads []int) ([]HeadRow, error) {
	if len(heads) == 0 {
		heads = []int{8, 16, 24, 32, 48, 64}
	}
	bm, err := workloads.ByName(benchName)
	if err != nil {
		return nil, err
	}
	var rows []HeadRow
	for _, h := range heads {
		if h > bm.Qubits() {
			continue
		}
		res, err := tilt.Execute(ctx, tilt.NewTILT(tilt.WithDevice(bm.Qubits(), h)), bm.Circuit)
		if err != nil {
			return nil, fmt.Errorf("head study %s h=%d: %w", benchName, h, err)
		}
		rows = append(rows, HeadRow{Head: h, Swaps: res.TILT.SwapCount, Moves: res.TILT.Moves, LogSuccess: res.LogSuccess})
	}
	return rows, nil
}

// FormatHeadStudy renders the head-size sweep.
func FormatHeadStudy(bench string, rows []HeadRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Head-size sweep — %s\n", bench)
	fmt.Fprintf(&b, "%6s %7s %7s %13s\n", "head", "swaps", "moves", "success")
	for _, r := range rows {
		fmt.Fprintf(&b, "%6d %7d %7d %13.3e\n", r.Head, r.Swaps, r.Moves, exp(r.LogSuccess))
	}
	return b.String()
}

// PlacementRow compares initial-placement strategies for one benchmark.
type PlacementRow struct {
	Bench        string
	IdentityLog  float64
	GreedyLog    float64
	ProgOrderLog float64
}

// PlacementAblation compares the three initial-placement strategies on the
// long-distance benchmarks — the design choice that makes the difference
// between a sweeping ancilla and a thrashing one.
func PlacementAblation(ctx context.Context, head int) ([]PlacementRow, error) {
	var rows []PlacementRow
	for _, name := range []string{"BV", "QFT", "SQRT"} {
		bm, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		row := PlacementRow{Bench: name}
		for _, s := range []tilt.Placement{
			tilt.IdentityPlacement, tilt.GreedyPlacement, tilt.ProgramOrderPlacement,
		} {
			be := tilt.NewTILT(tilt.WithDevice(bm.Qubits(), head), tilt.WithPlacement(s))
			res, err := tilt.Execute(ctx, be, bm.Circuit)
			if err != nil {
				return nil, fmt.Errorf("placement ablation %s/%v: %w", name, s, err)
			}
			switch s {
			case tilt.IdentityPlacement:
				row.IdentityLog = res.LogSuccess
			case tilt.GreedyPlacement:
				row.GreedyLog = res.LogSuccess
			case tilt.ProgramOrderPlacement:
				row.ProgOrderLog = res.LogSuccess
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatPlacement renders the placement ablation.
func FormatPlacement(rows []PlacementRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Placement ablation — head 16\n")
	fmt.Fprintf(&b, "%-6s %13s %13s %13s\n", "App", "identity", "greedy", "program-order")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s %13.3e %13.3e %13.3e\n",
			r.Bench, exp(r.IdentityLog), exp(r.GreedyLog), exp(r.ProgOrderLog))
	}
	return b.String()
}

// AlphaRow is one point of the Eq. 1 discount ablation.
type AlphaRow struct {
	Alpha      float64
	Swaps      int
	Opposing   float64
	LogSuccess float64
}

// AlphaAblation sweeps the Eq. 1 lookahead discount α on QFT: α→0
// degenerates to greedy current-gate routing; larger α weighs future gates
// and manufactures opposing swaps.
func AlphaAblation(ctx context.Context, head int, alphas []float64) ([]AlphaRow, error) {
	if len(alphas) == 0 {
		alphas = []float64{0.1, 0.3, 0.5, 0.7, 0.9}
	}
	bm, err := workloads.ByName("QFT")
	if err != nil {
		return nil, err
	}
	var rows []AlphaRow
	for _, a := range alphas {
		be := tilt.NewTILT(tilt.WithDevice(bm.Qubits(), head), tilt.WithSwapOptions(tilt.SwapOptions{Alpha: a}))
		res, err := tilt.Execute(ctx, be, bm.Circuit)
		if err != nil {
			return nil, fmt.Errorf("alpha ablation α=%g: %w", a, err)
		}
		rows = append(rows, AlphaRow{
			Alpha:      a,
			Swaps:      res.TILT.SwapCount,
			Opposing:   res.TILT.OpposingRatio(),
			LogSuccess: res.LogSuccess,
		})
	}
	return rows, nil
}

// FormatAlpha renders the α ablation.
func FormatAlpha(rows []AlphaRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Eq. 1 lookahead-discount ablation — QFT-64, head 16\n")
	fmt.Fprintf(&b, "%6s %7s %10s %13s\n", "alpha", "swaps", "opposing", "success")
	for _, r := range rows {
		fmt.Fprintf(&b, "%6.2f %7d %10.2f %13.3e\n", r.Alpha, r.Swaps, r.Opposing, exp(r.LogSuccess))
	}
	return b.String()
}

// OptimizeRow compares the pipeline with and without the peephole optimizer.
type OptimizeRow struct {
	Bench       string
	GatesBefore int
	GatesAfter  int
	PlainLog    float64
	OptLog      float64
}

// compileAndSimulate is Execute for studies that also read the compiled
// artifact.
func compileAndSimulate(ctx context.Context, be tilt.Backend, c *tilt.Circuit) (*tilt.Artifact, *tilt.Result, error) {
	a, err := be.Compile(ctx, c)
	if err != nil {
		return nil, nil, err
	}
	res, err := be.Simulate(ctx, a)
	return a, res, err
}

// OptimizeAblation measures what the peephole optimizer buys on each
// benchmark: eliminated gates and the success-rate change.
func OptimizeAblation(ctx context.Context, head int) ([]OptimizeRow, error) {
	var rows []OptimizeRow
	for _, bm := range workloads.All() {
		plain, plainRes, err := compileAndSimulate(ctx, tilt.NewTILT(tilt.WithDevice(bm.Qubits(), head)), bm.Circuit)
		if err != nil {
			return nil, fmt.Errorf("optimize ablation %s: %w", bm.Name, err)
		}
		opt, optRes, err := compileAndSimulate(ctx, tilt.NewTILT(tilt.WithDevice(bm.Qubits(), head), tilt.WithOptimize()), bm.Circuit)
		if err != nil {
			return nil, fmt.Errorf("optimize ablation %s (opt): %w", bm.Name, err)
		}
		rows = append(rows, OptimizeRow{
			Bench:       bm.Name,
			GatesBefore: plain.Native.Len(),
			GatesAfter:  opt.Native.Len(),
			PlainLog:    plainRes.LogSuccess,
			OptLog:      optRes.LogSuccess,
		})
	}
	return rows, nil
}

// FormatOptimize renders the optimizer ablation.
func FormatOptimize(rows []OptimizeRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Peephole-optimizer ablation — head 16\n")
	fmt.Fprintf(&b, "%-6s %9s %9s %13s %13s\n", "App", "gates", "opt", "success", "opt-success")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s %9d %9d %13.3e %13.3e\n",
			r.Bench, r.GatesBefore, r.GatesAfter, exp(r.PlainLog), exp(r.OptLog))
	}
	return b.String()
}

// SchedulerRow compares Algorithm 2's greedy placement against a blind
// sweeping head for one benchmark.
type SchedulerRow struct {
	Bench       string
	GreedyMoves int
	SweepMoves  int
	GreedyLog   float64
	SweepLog    float64
}

// SchedulerAblation compiles each benchmark once and schedules its physical
// circuit twice, with Algorithm 2 (the stock schedule pass) and with the
// naive sweeping head, comparing moves and success — the ablation for the
// paper's second core heuristic. Both rows go through the same noise walk.
func SchedulerAblation(ctx context.Context, head int) ([]SchedulerRow, error) {
	var rows []SchedulerRow
	for _, bm := range workloads.All() {
		a, greedy, err := compileAndSimulate(ctx, tilt.NewTILT(tilt.WithDevice(bm.Qubits(), head)), bm.Circuit)
		if err != nil {
			return nil, fmt.Errorf("scheduler ablation %s: %w", bm.Name, err)
		}
		phys, dev := a.Compile.Physical, greedy.TILT.Device
		sched, err := schedule.Sweep(ctx, phys, dev)
		if err != nil {
			return nil, fmt.Errorf("scheduler ablation %s sweep: %w", bm.Name, err)
		}
		sweep, err := sim.Simulate(ctx, phys, sched, dev, a.Noise())
		if err != nil {
			return nil, fmt.Errorf("scheduler ablation %s sweep: %w", bm.Name, err)
		}
		rows = append(rows, SchedulerRow{
			Bench:       bm.Name,
			GreedyMoves: greedy.TILT.Moves,
			SweepMoves:  sched.Moves,
			GreedyLog:   greedy.LogSuccess,
			SweepLog:    sweep.LogSuccess,
		})
	}
	return rows, nil
}

// FormatScheduler renders the scheduler ablation.
func FormatScheduler(rows []SchedulerRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Tape-scheduler ablation — Algorithm 2 (greedy) vs sweeping head, head 16\n")
	fmt.Fprintf(&b, "%-6s %10s %10s %13s %13s\n",
		"App", "mv:greedy", "mv:sweep", "succ:greedy", "succ:sweep")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s %10d %10d %13.3e %13.3e\n",
			r.Bench, r.GreedyMoves, r.SweepMoves, exp(r.GreedyLog), exp(r.SweepLog))
	}
	return b.String()
}
