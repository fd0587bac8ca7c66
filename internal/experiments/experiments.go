// Package experiments regenerates every table and figure of the paper's
// evaluation (§V–VI): Table II (benchmark inventory), Fig. 6 (LinQ vs
// baseline swap insertion), Fig. 7 (MaxSwapLen sweep), Fig. 8 (architecture
// comparison), and Table III (compilation and execution metrics).
//
// Absolute numbers depend on the calibrated noise constants (README,
// "Calibration and substitutions"); the assertions this package's tests
// make — and cmd/experiments prints — are about shape: who wins, by what
// order, where crossovers fall.
package experiments

//lint:deterministic-package

import (
	"context"
	"fmt"
	"math"
	"strings"

	tilt "repro"
	"repro/internal/decompose"
	"repro/internal/pipeline"
	"repro/internal/workloads"
	"repro/runner"
)

// Table2Row is one line of Table II.
type Table2Row struct {
	Name    string
	Qubits  int
	TwoQ    int // CNOT-level two-qubit gate count (paper convention)
	Paper2Q int // the count Table II reports
	Comm    string
}

// paper2Q holds Table II's published two-qubit gate counts.
var paper2Q = map[string]int{
	"ADDER": 545, "BV": 64, "QAOA": 1260, "RCS": 560, "QFT": 4032, "SQRT": 1028,
}

// Table2 regenerates Table II from the workload generators.
func Table2() []Table2Row {
	var rows []Table2Row
	for _, bm := range workloads.All() {
		rows = append(rows, Table2Row{
			Name:    bm.Name,
			Qubits:  bm.Qubits(),
			TwoQ:    decompose.TwoQubitGateCount(bm.Circuit),
			Paper2Q: paper2Q[bm.Name],
			Comm:    string(bm.Comm),
		})
	}
	return rows
}

// FormatTable2 renders Table II.
func FormatTable2(rows []Table2Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table II — benchmarks\n")
	fmt.Fprintf(&b, "%-8s %7s %10s %10s  %s\n", "App", "Qubits", "2Q(ours)", "2Q(paper)", "Communication")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %7d %10d %10d  %s\n", r.Name, r.Qubits, r.TwoQ, r.Paper2Q, r.Comm)
	}
	return b.String()
}

// Fig6Row compares the stochastic baseline against LinQ for one benchmark
// (Fig. 6a–f; the paper uses head size 16 and the long-distance benchmarks).
type Fig6Row struct {
	Bench string

	BaselineSwaps    int
	BaselineOpposing float64
	BaselineMoves    int
	BaselineLog      float64 // log success rate

	LinQSwaps    int
	LinQOpposing float64
	LinQMoves    int
	LinQLog      float64
}

// Fig6 regenerates Fig. 6 for the given head size (paper: 16) over the
// long-distance benchmarks BV, QFT, SQRT. The baseline and LinQ compiles of
// all three benchmarks fan out over the batch runner.
func Fig6(ctx context.Context, head int) ([]Fig6Row, error) {
	names := []string{"BV", "QFT", "SQRT"}
	var jobs []runner.Job
	for _, name := range names {
		bm, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs,
			runner.Job{
				Name: name + "/baseline",
				Backend: tilt.NewTILT(
					tilt.WithDevice(bm.Qubits(), head),
					tilt.WithInserter(tilt.StochasticInserter(8, 2021))),
				Circuit: bm.Circuit,
			},
			runner.Job{
				Name:    name + "/linq",
				Backend: tilt.NewTILT(tilt.WithDevice(bm.Qubits(), head)),
				Circuit: bm.Circuit,
			})
	}
	results := runner.Run(ctx, jobs)
	rows := make([]Fig6Row, len(names))
	for i, name := range names {
		base, linq := results[2*i], results[2*i+1]
		if base.Err != nil {
			return nil, fmt.Errorf("fig6 %s baseline: %w", name, base.Err)
		}
		if linq.Err != nil {
			return nil, fmt.Errorf("fig6 %s linq: %w", name, linq.Err)
		}
		rows[i] = Fig6Row{
			Bench:            name,
			BaselineSwaps:    base.Result.TILT.SwapCount,
			BaselineOpposing: base.Result.TILT.OpposingRatio(),
			BaselineMoves:    base.Result.TILT.Moves,
			BaselineLog:      base.Result.LogSuccess,
			LinQSwaps:        linq.Result.TILT.SwapCount,
			LinQOpposing:     linq.Result.TILT.OpposingRatio(),
			LinQMoves:        linq.Result.TILT.Moves,
			LinQLog:          linq.Result.LogSuccess,
		}
	}
	return rows, nil
}

// FormatFig6 renders the Fig. 6 comparison.
func FormatFig6(rows []Fig6Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 6 — swap insertion, baseline (StochasticSwap-style) vs LinQ, head 16\n")
	fmt.Fprintf(&b, "%-6s | %8s %8s | %8s %8s | %7s %7s | %12s %12s\n",
		"App", "swp:base", "swp:linq", "opp:base", "opp:linq",
		"mv:base", "mv:linq", "succ:base", "succ:linq")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s | %8d %8d | %8.2f %8.2f | %7d %7d | %12.3e %12.3e\n",
			r.Bench, r.BaselineSwaps, r.LinQSwaps,
			r.BaselineOpposing, r.LinQOpposing,
			r.BaselineMoves, r.LinQMoves,
			exp(r.BaselineLog), exp(r.LinQLog))
	}
	return b.String()
}

// Fig7Row is one point of the MaxSwapLen sweep (Fig. 7).
type Fig7Row struct {
	Bench      string
	MaxSwapLen int
	Swaps      int
	Moves      int
	LogSuccess float64
}

// Fig7 regenerates the Fig. 7 sweep: success/swaps/moves for MaxSwapLen from
// head−1 down to 8 (paper values: 15..8 at head 16) on BV, QFT, SQRT.
func Fig7(ctx context.Context, head int, lens []int) ([]Fig7Row, error) {
	if len(lens) == 0 {
		for l := head - 1; l >= 8; l-- {
			lens = append(lens, l)
		}
	}
	var rows []Fig7Row
	for _, name := range []string{"BV", "QFT", "SQRT"} {
		bm, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		be := tilt.NewTILT(tilt.WithDevice(bm.Qubits(), head))
		trials, _, err := be.AutoTune(ctx, bm.Circuit, lens)
		if err != nil {
			return nil, fmt.Errorf("fig7 %s: %w", name, err)
		}
		for _, tr := range trials {
			rows = append(rows, Fig7Row{
				Bench:      name,
				MaxSwapLen: tr.MaxSwapLen,
				Swaps:      tr.SwapCount,
				Moves:      tr.Moves,
				LogSuccess: tr.LogSuccess,
			})
		}
	}
	return rows, nil
}

// FormatFig7 renders the Fig. 7 sweep.
func FormatFig7(rows []Fig7Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 7 — MaxSwapLen sweep (head 16)\n")
	fmt.Fprintf(&b, "%-6s %10s %7s %7s %13s\n", "App", "MaxSwapLen", "Swaps", "Moves", "Success")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s %10d %7d %7d %13.3e\n",
			r.Bench, r.MaxSwapLen, r.Swaps, r.Moves, exp(r.LogSuccess))
	}
	return b.String()
}

// Fig8Row compares architectures for one benchmark (Fig. 8): log success on
// TILT with head 16 and 32, the ideal fully connected device, and the best
// QCCD configuration from the 15–35 capacity sweep.
type Fig8Row struct {
	Bench        string
	TILT16Log    float64
	TILT32Log    float64
	IdealLog     float64
	QCCDLog      float64
	QCCDCapacity int
}

// Fig8 regenerates the architecture comparison over all six benchmarks.
// The 6 benchmarks × 4 architectures fan out as one batch over the runner.
func Fig8(ctx context.Context) ([]Fig8Row, error) {
	all := workloads.All()
	const perBench = 4
	var jobs []runner.Job
	for _, bm := range all {
		jobs = append(jobs,
			runner.Job{
				Name:    bm.Name + "/TILT-16",
				Backend: tilt.NewTILT(tilt.WithDevice(bm.Qubits(), 16)),
				Circuit: bm.Circuit,
			},
			runner.Job{
				Name:    bm.Name + "/TILT-32",
				Backend: tilt.NewTILT(tilt.WithDevice(bm.Qubits(), 32)),
				Circuit: bm.Circuit,
			},
			runner.Job{
				Name:    bm.Name + "/IdealTI",
				Backend: tilt.NewIdealTI(tilt.WithDevice(bm.Qubits(), 16)),
				Circuit: bm.Circuit,
			},
			runner.Job{
				Name:    bm.Name + "/QCCD",
				Backend: tilt.NewQCCD(tilt.WithDevice(bm.Qubits(), 16)),
				Circuit: bm.Circuit,
			})
	}
	results := runner.Run(ctx, jobs)
	for _, jr := range results {
		if jr.Err != nil {
			return nil, fmt.Errorf("fig8 %s: %w", jr.Name, jr.Err)
		}
	}
	rows := make([]Fig8Row, len(all))
	for i, bm := range all {
		r := results[i*perBench : (i+1)*perBench] // TILT-16, TILT-32, IdealTI, QCCD
		rows[i] = Fig8Row{
			Bench:        bm.Name,
			TILT16Log:    r[0].Result.LogSuccess,
			TILT32Log:    r[1].Result.LogSuccess,
			IdealLog:     r[2].Result.LogSuccess,
			QCCDLog:      r[3].Result.LogSuccess,
			QCCDCapacity: r[3].Result.QCCD.Capacity,
		}
	}
	return rows, nil
}

// FormatFig8 renders the architecture comparison.
func FormatFig8(rows []Fig8Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 8 — success rates by architecture\n")
	fmt.Fprintf(&b, "%-6s %12s %12s %12s %12s %6s\n",
		"App", "TILT-16", "TILT-32", "IdealTI", "QCCD", "(cap)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s %12.3e %12.3e %12.3e %12.3e %6d\n",
			r.Bench, exp(r.TILT16Log), exp(r.TILT32Log),
			exp(r.IdealLog), exp(r.QCCDLog), r.QCCDCapacity)
	}
	return b.String()
}

// Table3Row is one line of Table III for one head size. TSwapSec and
// TMoveSec come from the pipeline's generic PassTiming records (the
// insert-swaps and schedule passes) rather than dedicated phase timers.
type Table3Row struct {
	Bench     string
	Head      int
	TSwapSec  float64
	TMoveSec  float64
	Moves     int
	DistUm    float64
	TExecSec  float64
	SwapCount int
}

// Table3 regenerates the compilation-results table for head sizes 16 and
// 32. The twelve compiles go through the batch runner but on a single
// worker: the t_swap/t_move columns are wall-clock phase timings, and
// running the compiles concurrently would inflate them with scheduler
// contention.
func Table3(ctx context.Context) ([]Table3Row, error) {
	jobs, meta := table3Jobs()
	results := runner.Run(ctx, jobs, runner.WithWorkers(1))
	rows := make([]Table3Row, len(jobs))
	for i, jr := range results {
		if jr.Err != nil {
			return nil, fmt.Errorf("table3 %s: %w", jr.Name, jr.Err)
		}
		row := meta[i]
		// t_swap and t_move are the insert-swaps and schedule entries of
		// the per-pass timing records.
		cr := jr.Artifact.Compile
		row.TSwapSec = cr.PassTime(pipeline.NameInsertSwaps).Seconds()
		row.TMoveSec = cr.PassTime(pipeline.NameSchedule).Seconds()
		row.Moves = jr.Result.TILT.Moves
		row.DistUm = jr.Result.TILT.DistUm
		row.TExecSec = jr.Result.ExecTimeUs / 1e6
		row.SwapCount = jr.Result.TILT.SwapCount
		rows[i] = row
	}
	return rows, nil
}

// table3Jobs lists the Table III compiles, every benchmark at head 16 and
// 32, with each one's row label.
func table3Jobs() (jobs []runner.Job, meta []Table3Row) {
	for _, bm := range workloads.All() {
		for _, head := range []int{16, 32} {
			jobs = append(jobs, runner.Job{
				Name:    fmt.Sprintf("%s/head-%d", bm.Name, head),
				Backend: tilt.NewTILT(tilt.WithDevice(bm.Qubits(), head)),
				Circuit: bm.Circuit,
			})
			meta = append(meta, Table3Row{Bench: bm.Name, Head: head})
		}
	}
	return jobs, meta
}

// FormatTable3 renders the compilation-results table.
func FormatTable3(rows []Table3Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table III — LinQ compilation results\n")
	fmt.Fprintf(&b, "%-6s %5s %10s %10s %7s %9s %9s %6s\n",
		"App", "Head", "tswap(s)", "tmove(s)", "#moves", "dist(um)", "texec(s)", "#swap")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s %5d %10.3f %10.3f %7d %9.0f %9.3f %6d\n",
			r.Bench, r.Head, r.TSwapSec, r.TMoveSec, r.Moves, r.DistUm, r.TExecSec, r.SwapCount)
	}
	return b.String()
}

// exp converts a log success rate for display; math.Exp underflows to 0
// below ~-745, which is the right behaviour for a probability column.
func exp(logv float64) float64 { return math.Exp(logv) }
