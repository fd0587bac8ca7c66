package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"

	tilt "repro"
	"repro/internal/decompose"
	"repro/internal/noise"
	"repro/internal/workloads"
	"repro/runner"
)

// This file holds the breadth studies: the §III-C short-distance application
// suite (VQE, Ising, surface code), the paper's headline advantage summary
// ("up to 4.35x and 1.95x on average"), and the noise-robustness check that
// backs the claim that the headline orderings do not hinge on the
// calibrated constants (go run ./cmd/experiments -extensions).

// SuiteRow compares architectures on one short-distance-suite workload.
type SuiteRow struct {
	Bench     string
	Qubits    int
	TwoQ      int
	TILT16Log float64
	TILT32Log float64
	QCCDLog   float64
}

// ShortDistanceSuite runs the §III-C application classes — the workloads the
// paper argues TILT is designed for — across TILT-16, TILT-32, and the best
// QCCD configuration, as one concurrent batch over the runner.
func ShortDistanceSuite(ctx context.Context) ([]SuiteRow, error) {
	suite := workloads.ShortDistanceSuite()
	const perBench = 3
	var jobs []runner.Job
	for _, bm := range suite {
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
				Name:    bm.Name + "/QCCD",
				Backend: tilt.NewQCCD(tilt.WithDevice(bm.Qubits(), 16)),
				Circuit: bm.Circuit,
			})
	}
	results := runner.Run(ctx, jobs)
	for _, jr := range results {
		if jr.Err != nil {
			return nil, fmt.Errorf("suite %s: %w", jr.Name, jr.Err)
		}
	}
	rows := make([]SuiteRow, len(suite))
	for i, bm := range suite {
		r := results[i*perBench : (i+1)*perBench] // TILT-16, TILT-32, QCCD
		rows[i] = SuiteRow{
			Bench:     bm.Name,
			Qubits:    bm.Qubits(),
			TwoQ:      decompose.TwoQubitGateCount(bm.Circuit),
			TILT16Log: r[0].Result.LogSuccess,
			TILT32Log: r[1].Result.LogSuccess,
			QCCDLog:   r[2].Result.LogSuccess,
		}
	}
	return rows, nil
}

// FormatSuite renders the short-distance suite comparison.
func FormatSuite(rows []SuiteRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Short-distance application suite (§III-C classes)\n")
	fmt.Fprintf(&b, "%-8s %7s %6s %12s %12s %12s\n",
		"App", "Qubits", "2Q", "TILT-16", "TILT-32", "QCCD")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %7d %6d %12.3e %12.3e %12.3e\n",
			r.Bench, r.Qubits, r.TwoQ,
			exp(r.TILT16Log), exp(r.TILT32Log), exp(r.QCCDLog))
	}
	return b.String()
}

// Advantage summarizes TILT's success-rate ratio over QCCD across a set of
// benchmarks — the form of the paper's abstract claim ("up to 4.35x and
// 1.95x on average").
type Advantage struct {
	Max     float64
	MaxApp  string
	GeoMean float64
	PerApp  map[string]float64
	// Apps lists PerApp's keys in row order (for Fig. 8, Table II order).
	Apps []string
}

// AdvantageSummary computes TILT(head)/QCCD success ratios over the Fig. 8
// rows. The mean is geometric (ratios of probabilities spanning decades),
// computed over the benchmarks where both success rates are representable.
func AdvantageSummary(rows []Fig8Row, head int) Advantage {
	adv := Advantage{PerApp: make(map[string]float64)}
	var logSum float64
	var count int
	for _, r := range rows {
		tiltLog := r.TILT16Log
		if head == 32 {
			tiltLog = r.TILT32Log
		}
		ratioLog := tiltLog - r.QCCDLog
		ratio := math.Exp(ratioLog)
		adv.PerApp[r.Bench] = ratio
		adv.Apps = append(adv.Apps, r.Bench)
		if ratio > adv.Max {
			adv.Max = ratio
			adv.MaxApp = r.Bench
		}
		logSum += ratioLog
		count++
	}
	if count > 0 {
		adv.GeoMean = math.Exp(logSum / float64(count))
	}
	return adv
}

// FormatAdvantage renders the advantage summary.
func FormatAdvantage(a Advantage, head int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "TILT-%d advantage over QCCD (paper: up to 4.35x, 1.95x average)\n", head)
	fmt.Fprintf(&b, "  max     %.2fx (%s)\n", a.Max, a.MaxApp)
	fmt.Fprintf(&b, "  geomean %.2fx\n", a.GeoMean)
	for _, app := range a.Apps {
		fmt.Fprintf(&b, "  %-6s %10.3gx\n", app, a.PerApp[app])
	}
	return b.String()
}

// RobustnessRow records whether the Fig. 8 qualitative orderings hold at a
// perturbed noise point.
type RobustnessRow struct {
	Label string
	// Holds reports the three §VI-B orderings: TILT16 > QCCD on QAOA and
	// RCS, QCCD > TILT16 on QFT.
	QAOAHolds bool
	RCSHolds  bool
	QFTHolds  bool
}

// Robustness re-evaluates the Fig. 8 headline orderings with each noise
// constant halved and doubled — the stability claim the README's
// "Calibration and substitutions" section makes.
// Only the three benchmarks carrying the §VI-B claims are re-run.
func Robustness(ctx context.Context) ([]RobustnessRow, error) {
	variants := []struct {
		label string
		mod   func(*noise.Params)
	}{
		{"default", func(*noise.Params) {}},
		{"gamma/2", func(p *noise.Params) { p.Gamma /= 2 }},
		{"gamma*2", func(p *noise.Params) { p.Gamma *= 2 }},
		{"eps/2", func(p *noise.Params) { p.Epsilon /= 2 }},
		{"eps*2", func(p *noise.Params) { p.Epsilon *= 2 }},
		{"k0/2", func(p *noise.Params) { p.K0 /= 2 }},
		{"k0*2", func(p *noise.Params) { p.K0 *= 2 }},
	}
	var rows []RobustnessRow
	for _, v := range variants {
		p := noise.Default()
		v.mod(&p)
		row := RobustnessRow{Label: v.label}
		for _, name := range []string{"QAOA", "RCS", "QFT"} {
			bm, err := workloads.ByName(name)
			if err != nil {
				return nil, err
			}
			opts := []tilt.Option{tilt.WithDevice(bm.Qubits(), 16), tilt.WithNoise(p)}
			tiltRes, err := tilt.Execute(ctx, tilt.NewTILT(opts...), bm.Circuit)
			if err != nil {
				return nil, fmt.Errorf("robustness %s %s: %w", v.label, name, err)
			}
			qccdRes, err := tilt.Execute(ctx, tilt.NewQCCD(opts...), bm.Circuit)
			if err != nil {
				return nil, fmt.Errorf("robustness %s %s qccd: %w", v.label, name, err)
			}
			switch name {
			case "QAOA":
				row.QAOAHolds = tiltRes.LogSuccess > qccdRes.LogSuccess
			case "RCS":
				row.RCSHolds = tiltRes.LogSuccess > qccdRes.LogSuccess
			case "QFT":
				row.QFTHolds = qccdRes.LogSuccess > tiltRes.LogSuccess
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatRobustness renders the robustness table.
func FormatRobustness(rows []RobustnessRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Noise-robustness of the §VI-B orderings (±2x each constant)\n")
	fmt.Fprintf(&b, "%-10s %12s %12s %12s\n", "variant", "QAOA:TILT>", "RCS:TILT>", "QFT:QCCD>")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %12v %12v %12v\n", r.Label, r.QAOAHolds, r.RCSHolds, r.QFTHolds)
	}
	return b.String()
}
