package experiments

import (
	"context"
	"fmt"
	"strings"

	tilt "repro"
	"repro/internal/chain"
	"repro/internal/noise"
	"repro/internal/workloads"
)

// This file grounds two of the paper's physical arguments in numbers: the
// §I claim that a center-of-chain execution zone sees more uniform ion
// spacing (better individual addressing), and the §III-B gate-selection
// argument that distance-proportional AM gates suit TILT while FM gates —
// whose duration scales with the whole chain — squander its structure.

// AddressingRow is one execution-zone placement in the uniformity study.
type AddressingRow struct {
	WindowStart int
	// RMS is the window's RMS deviation from the best-fit uniform beam
	// grid, in characteristic lengths (the pointing error a fixed AOM
	// array incurs).
	RMS float64
}

// AddressingStudy computes the beam-grid uniformity of every head-sized
// window over an n-ion equilibrium chain. The §I design argument predicts a
// minimum at the center.
func AddressingStudy(n, head, stride int) ([]AddressingRow, error) {
	if stride < 1 {
		stride = head / 2
		if stride < 1 {
			stride = 1
		}
	}
	u, err := chain.EquilibriumPositions(n)
	if err != nil {
		return nil, err
	}
	var rows []AddressingRow
	for start := 0; start+head <= n; start += stride {
		rms, err := chain.UniformityRMS(u, start, head)
		if err != nil {
			return nil, err
		}
		rows = append(rows, AddressingRow{WindowStart: start, RMS: rms})
	}
	// Always include the exact centered window.
	center := chain.CenterWindow(n, head)
	included := false
	for _, r := range rows {
		if r.WindowStart == center {
			included = true
			break
		}
	}
	if !included {
		rms, err := chain.UniformityRMS(u, center, head)
		if err != nil {
			return nil, err
		}
		rows = append(rows, AddressingRow{WindowStart: center, RMS: rms})
	}
	return rows, nil
}

// FormatAddressing renders the uniformity study.
func FormatAddressing(n, head int, rows []AddressingRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Execution-zone uniformity — %d-ion equilibrium chain, %d-ion window\n", n, head)
	fmt.Fprintf(&b, "(RMS deviation from the best-fit uniform beam grid; §I predicts a central minimum)\n")
	fmt.Fprintf(&b, "%12s %14s\n", "window@", "RMS (char.len)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%12d %14.5f\n", r.WindowStart, r.RMS)
	}
	return b.String()
}

// GateModeRow compares AM against FM gate implementations for one benchmark.
type GateModeRow struct {
	Bench   string
	AMLog   float64 // τ(d) = 38d+10 (the paper's choice for TILT)
	FMLog   float64 // τ = 38·n+10 regardless of distance (chain-length bound)
	Speedup float64 // AM mean gate time advantage, from τ ratios
}

// GateModeAblation reproduces the §III-B argument quantitatively: rerunning
// the benchmarks with FM-style gates — duration pinned to the full chain
// length instead of the ion distance — and comparing success rates. FM is
// modeled by a constant gate time τ = slope·n + offset (set via the existing
// noise parameters with zero slope), exactly the "proportional to the total
// number of ions in a chain" dependence the paper cites.
func GateModeAblation(ctx context.Context, head int) ([]GateModeRow, error) {
	var rows []GateModeRow
	for _, bm := range workloads.All() {
		am := noise.Default()
		fm := noise.Default()
		fm.GateTimeOffset = fm.GateTimeSlope*float64(bm.Qubits()) + fm.GateTimeOffset
		fm.GateTimeSlope = 0

		amRes, err := tilt.Execute(ctx, tilt.NewTILT(tilt.WithDevice(bm.Qubits(), head), tilt.WithNoise(am)), bm.Circuit)
		if err != nil {
			return nil, fmt.Errorf("gate mode %s AM: %w", bm.Name, err)
		}
		fmRes, err := tilt.Execute(ctx, tilt.NewTILT(tilt.WithDevice(bm.Qubits(), head), tilt.WithNoise(fm)), bm.Circuit)
		if err != nil {
			return nil, fmt.Errorf("gate mode %s FM: %w", bm.Name, err)
		}
		rows = append(rows, GateModeRow{
			Bench:   bm.Name,
			AMLog:   amRes.LogSuccess,
			FMLog:   fmRes.LogSuccess,
			Speedup: fmRes.ExecTimeUs / amRes.ExecTimeUs,
		})
	}
	return rows, nil
}

// FormatGateMode renders the AM/FM comparison.
func FormatGateMode(rows []GateModeRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Gate-implementation ablation — AM (τ∝distance) vs FM (τ∝chain), head 16\n")
	fmt.Fprintf(&b, "%-6s %13s %13s %10s\n", "App", "AM success", "FM success", "FM/AM time")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s %13.3e %13.3e %9.1fx\n",
			r.Bench, exp(r.AMLog), exp(r.FMLog), r.Speedup)
	}
	return b.String()
}
