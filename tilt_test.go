package tilt_test

import (
	"context"
	"math"
	"testing"

	tilt "repro"
)

func TestQuickstartFlow(t *testing.T) {
	bench := tilt.GHZ(16)
	metrics, err := tilt.Execute(context.Background(), tilt.NewTILT(tilt.WithDevice(16, 8)), bench.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	if metrics.SuccessRate <= 0 || metrics.SuccessRate > 1 {
		t.Errorf("success = %g", metrics.SuccessRate)
	}
	if metrics.TILT.Moves < 1 {
		t.Errorf("moves = %d", metrics.TILT.Moves)
	}
}

func TestHandBuiltCircuit(t *testing.T) {
	c := tilt.NewCircuit(8)
	c.ApplyH(0)
	c.ApplyCNOT(0, 7)
	c.ApplyCCX(0, 3, 7) // the pipeline lowers Toffolis
	metrics, err := tilt.Execute(context.Background(), tilt.NewTILT(tilt.WithDevice(8, 4)), c)
	if err != nil {
		t.Fatal(err)
	}
	if metrics.TwoQubitGates < 7 {
		t.Errorf("expected ≥7 two-qubit gates after lowering, got %d", metrics.TwoQubitGates)
	}
}

func TestBenchmarkAccessors(t *testing.T) {
	if got := len(tilt.Benchmarks()); got != 6 {
		t.Fatalf("Benchmarks() returned %d, want 6", got)
	}
	names := []struct {
		bm   tilt.Benchmark
		name string
		n    int
	}{
		{tilt.BenchmarkADDER(), "ADDER", 64},
		{tilt.BenchmarkBV(), "BV", 64},
		{tilt.BenchmarkQAOA(), "QAOA", 64},
		{tilt.BenchmarkRCS(), "RCS", 64},
		{tilt.BenchmarkQFT(), "QFT", 64},
		{tilt.BenchmarkSQRT(), "SQRT", 78},
	}
	for _, c := range names {
		if c.bm.Name != c.name || c.bm.Qubits() != c.n {
			t.Errorf("%s: got %s/%d", c.name, c.bm.Name, c.bm.Qubits())
		}
	}
	if _, err := tilt.BenchmarkByName("QFT"); err != nil {
		t.Error(err)
	}
	if _, err := tilt.BenchmarkByName("bogus"); err == nil {
		t.Error("bogus benchmark should fail")
	}
}

func TestTwoQubitGateCountConvention(t *testing.T) {
	if got := tilt.TwoQubitGateCount(tilt.BenchmarkQFT().Circuit); got != 4032 {
		t.Errorf("QFT 2Q count = %d, want 4032", got)
	}
}

func TestBaselineVsLinQOnFacade(t *testing.T) {
	ctx := context.Background()
	bench := tilt.BenchmarkBV()
	linq, err := tilt.Execute(ctx, tilt.NewTILT(tilt.WithDevice(64, 16)), bench.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	base, err := tilt.Execute(ctx, tilt.NewTILT(tilt.WithDevice(64, 16),
		tilt.WithInserter(tilt.StochasticInserter(8, 7))), bench.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	if linq.LogSuccess < base.LogSuccess {
		t.Errorf("LinQ (%g) should not lose to baseline (%g)", linq.LogSuccess, base.LogSuccess)
	}
}

func TestRunIdealAndQCCDFacade(t *testing.T) {
	ctx := context.Background()
	bench := tilt.BenchmarkBV()
	ideal, err := tilt.Execute(ctx, tilt.NewIdealTI(tilt.WithDevice(64, 16)), bench.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	qr, err := tilt.Execute(ctx, tilt.NewQCCD(tilt.WithDevice(64, 16), tilt.WithCapacities(17, 33)), bench.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	if ideal.SuccessRate <= 0 || qr.SuccessRate <= 0 {
		t.Errorf("ideal=%g qccd=%g", ideal.SuccessRate, qr.SuccessRate)
	}
	if qr.QCCD.Capacity != 17 && qr.QCCD.Capacity != 33 {
		t.Errorf("QCCD capacity %d not from explicit list", qr.QCCD.Capacity)
	}
}

func TestAutoTuneFacade(t *testing.T) {
	bench := tilt.GHZ(12)
	trials, best, err := tilt.NewTILT(tilt.WithDevice(12, 6)).AutoTune(context.Background(), bench.Circuit, []int{5, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(trials) != 2 || best < 0 {
		t.Fatalf("trials=%d best=%d", len(trials), best)
	}
}

func TestCustomNoiseThroughFacade(t *testing.T) {
	p := tilt.DefaultNoise()
	p.Gamma = 0
	p.Epsilon = 0
	p.K0 = 0
	p.OneQubitError = 0
	be := tilt.NewTILT(tilt.WithDevice(8, 4), tilt.WithNoise(p))
	metrics, err := tilt.Execute(context.Background(), be, tilt.GHZ(8).Circuit)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(metrics.SuccessRate-1) > 1e-12 {
		t.Errorf("noiseless run success = %g", metrics.SuccessRate)
	}
}

func TestExtendedBenchmarkFacades(t *testing.T) {
	vqe := tilt.BenchmarkVQE(16, 2, 1)
	if vqe.Name != "VQE" || vqe.Qubits() != 16 {
		t.Errorf("VQE facade: %s/%d", vqe.Name, vqe.Qubits())
	}
	ising := tilt.BenchmarkIsing(16, 3, 0.2, 0.1)
	if ising.Name != "ISING" || ising.Circuit.TwoQubitCount() != 2*15*3 {
		t.Errorf("Ising facade: %s/%d", ising.Name, ising.Circuit.TwoQubitCount())
	}
	sc := tilt.BenchmarkSurfaceCode(2, 3)
	if sc.Name != "SURFACE" || sc.Qubits() != 34 {
		t.Errorf("SurfaceCode facade: %s/%d", sc.Name, sc.Qubits())
	}
	// All three run end to end on TILT.
	for _, bm := range []tilt.Benchmark{vqe, ising, sc} {
		m, err := tilt.Execute(context.Background(), tilt.NewTILT(tilt.WithDevice(bm.Qubits(), 8)), bm.Circuit)
		if err != nil {
			t.Fatalf("%s: %v", bm.Name, err)
		}
		if m.SuccessRate <= 0 || m.SuccessRate > 1 {
			t.Errorf("%s: success %g", bm.Name, m.SuccessRate)
		}
	}
}
