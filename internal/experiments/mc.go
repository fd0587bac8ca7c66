// Monte-Carlo cross-validation of the analytic success-rate model: the
// trajectory sampler of internal/mc draws the per-gate error events that
// sim.Simulate multiplies out, so its clean-shot fraction must agree with
// the product of fidelities within sampling error. The study
// drives the public Backend API (WithShots/WithSeed) through the batch
// runner, exercising the same path a service endpoint would.
package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"

	tilt "repro"
	"repro/internal/workloads"
	"repro/runner"
)

// MCRow is one benchmark's Monte-Carlo cross-validation.
type MCRow struct {
	Name   string
	Qubits int
	Shots  int
	// Analytic is sim.Simulate's success rate; Clean ± CleanErr is the MC
	// clean-trajectory estimate whose expectation equals it.
	Analytic float64
	Clean    float64
	CleanErr float64
	// Sigma is |Clean − Analytic| / CleanErr, the discrepancy in standard
	// errors.
	Sigma float64
	// Fidelity ± FidelityErr is the statevector fidelity estimate under
	// random-Pauli injection (chains ≤16 ions).
	Fidelity    float64
	FidelityErr float64
}

// MCValidation cross-validates the analytic model on small deep workloads
// under a 4-ion head (real shuttling and heating). Epsilon is mildly
// inflated so the clean probability lands mid-range, where the binomial
// check has statistical power. All benchmarks run concurrently through the
// batch runner; estimates are deterministic for a fixed (shots, seed).
func MCValidation(ctx context.Context, shots int, seed int64) ([]MCRow, error) {
	p := tilt.DefaultNoise()
	p.Epsilon = 2e-4
	benches := []workloads.Benchmark{
		workloads.GHZ(12),
		workloads.QFTN(12),
		workloads.VQE(12, 2, 17),
	}
	jobs := make([]runner.Job, len(benches))
	for i, bm := range benches {
		jobs[i] = runner.Job{
			Name:    bm.Name,
			Circuit: bm.Circuit,
			Backend: tilt.NewTILT(
				tilt.WithDevice(bm.Qubits(), 4),
				tilt.WithNoise(p),
				tilt.WithShots(shots),
				tilt.WithSeed(seed),
			),
		}
	}
	var rows []MCRow
	for _, jr := range runner.Run(ctx, jobs) {
		if jr.Err != nil {
			return nil, fmt.Errorf("mc validation %s: %w", jr.Name, jr.Err)
		}
		mc := jr.Result.MC
		if mc == nil {
			return nil, fmt.Errorf("mc validation %s: backend returned no MC stats", jr.Name)
		}
		row := MCRow{
			Name:     jr.Name,
			Qubits:   jr.Artifact.Circuit.NumQubits(),
			Shots:    mc.Shots,
			Analytic: jr.Result.SuccessRate,
			Clean:    mc.CleanProbability,
			CleanErr: mc.CleanStderr,
		}
		if mc.CleanStderr > 0 {
			row.Sigma = math.Abs(mc.CleanProbability-jr.Result.SuccessRate) / mc.CleanStderr
		}
		if mc.HasStateFidelity {
			row.Fidelity = mc.StateFidelity
			row.FidelityErr = mc.StateFidelityStderr
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatMC renders the Monte-Carlo cross-validation table.
func FormatMC(rows []MCRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Monte-Carlo cross-validation — head 4, ε = 2e-4 (clean-shot fraction vs analytic product)\n")
	fmt.Fprintf(&b, "%-8s %3s %7s %10s %10s %9s %6s %10s %9s\n",
		"bench", "n", "shots", "analytic", "MC clean", "±err", "sigma", "fidelity", "±err")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %3d %7d %10.4f %10.4f %9.4f %6.2f %10.4f %9.4f\n",
			r.Name, r.Qubits, r.Shots, r.Analytic, r.Clean, r.CleanErr, r.Sigma,
			r.Fidelity, r.FidelityErr)
	}
	return b.String()
}
