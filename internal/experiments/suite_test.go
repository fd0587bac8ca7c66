package experiments

import (
	"context"
	"strings"
	"testing"
)

func TestShortDistanceSuiteTILTWins(t *testing.T) {
	rows, err := ShortDistanceSuite(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// The wider head must not lose to the narrow one anywhere.
		if r.TILT32Log < r.TILT16Log-1e-9 {
			t.Errorf("%s: TILT-32 (%g) below TILT-16 (%g)", r.Bench, r.TILT32Log, r.TILT16Log)
		}
		switch r.Bench {
		case "VQE", "ISING":
			// §III-C claim: TILT wins the nearest-neighbor classes.
			if r.TILT16Log < r.QCCDLog-1e-9 {
				t.Errorf("%s: TILT-16 (%g) below QCCD (%g)", r.Bench, r.TILT16Log, r.QCCDLog)
			}
		case "SURFACE":
			// Tiled QEC patches are QCCD's best case (one patch per
			// trap, zero shuttles) — §VII's motivation for combining the
			// architectures. TILT must stay within a small factor.
			if r.TILT16Log < r.QCCDLog-1 {
				t.Errorf("SURFACE: TILT-16 (%g) more than e^1 behind QCCD (%g)",
					r.TILT16Log, r.QCCDLog)
			}
		}
	}
	if out := FormatSuite(rows); !strings.Contains(out, "SURFACE") {
		t.Error("FormatSuite malformed")
	}
}

func TestAdvantageSummary(t *testing.T) {
	rows := []Fig8Row{
		{Bench: "A", TILT16Log: -1, TILT32Log: -0.5, QCCDLog: -2}, // 16: e^1 ≈ 2.72x
		{Bench: "B", TILT16Log: -3, TILT32Log: -2.5, QCCDLog: -3}, // 1x
		{Bench: "C", TILT16Log: -2, TILT32Log: -1, QCCDLog: -0.5}, // e^-1.5
	}
	a := AdvantageSummary(rows, 16)
	if a.MaxApp != "A" {
		t.Errorf("MaxApp = %s, want A", a.MaxApp)
	}
	if a.Max < 2.7 || a.Max > 2.8 {
		t.Errorf("Max = %g, want ≈e", a.Max)
	}
	// Geomean of e^1, e^0, e^-1.5 = e^(-0.5/3).
	if a.GeoMean < 0.8 || a.GeoMean > 0.9 {
		t.Errorf("GeoMean = %g", a.GeoMean)
	}
	if len(a.PerApp) != 3 {
		t.Errorf("PerApp size = %d", len(a.PerApp))
	}
	a32 := AdvantageSummary(rows, 32)
	if a32.Max <= a.Max {
		t.Errorf("head-32 max (%g) should exceed head-16 (%g) on this data", a32.Max, a.Max)
	}
	if out := FormatAdvantage(a, 16); !strings.Contains(out, "geomean") {
		t.Error("FormatAdvantage malformed")
	}
}

// TestFormatAdvantageRowOrder pins the per-app lines to the input row
// order (Fig. 8's, which is Table II's). Map iteration order varies from
// call to call, so formatting repeatedly catches a map-ordered renderer.
func TestFormatAdvantageRowOrder(t *testing.T) {
	apps := []string{"ADDER", "BV", "QAOA", "RCS", "QFT", "SQRT"}
	rows := make([]Fig8Row, len(apps))
	for i, app := range apps {
		rows[i] = Fig8Row{Bench: app, TILT16Log: -float64(i), QCCDLog: -1}
	}
	a := AdvantageSummary(rows, 16)
	for try := 0; try < 20; try++ {
		var got []string
		for _, line := range strings.Split(FormatAdvantage(a, 16), "\n") {
			if f := strings.Fields(line); len(f) == 2 && f[0] != "geomean" {
				got = append(got, f[0])
			}
		}
		if strings.Join(got, ",") != strings.Join(apps, ",") {
			t.Fatalf("per-app lines in order %v, want %v", got, apps)
		}
	}
}

func TestAdvantageOnRealFig8(t *testing.T) {
	rows, err := Fig8(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	a := AdvantageSummary(rows, 32)
	// The paper's claim shape: a clear TILT advantage exists (theirs
	// peaks at 4.35x) and the short-distance NISQ apps are on TILT's side.
	if a.Max < 1.5 {
		t.Errorf("max TILT-32 advantage %g; paper reports up to 4.35x", a.Max)
	}
	for _, app := range []string{"QAOA", "RCS"} {
		if a.PerApp[app] <= 1 {
			t.Errorf("%s: TILT-32/QCCD ratio %g, want > 1", app, a.PerApp[app])
		}
	}
}

func TestRobustnessOrderingsHold(t *testing.T) {
	if testing.Short() {
		t.Skip("7 noise variants x 3 benchmarks x capacity sweeps")
	}
	rows, err := Robustness(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if !r.QAOAHolds || !r.RCSHolds || !r.QFTHolds {
			t.Errorf("%s: orderings broke (QAOA %v, RCS %v, QFT %v)",
				r.Label, r.QAOAHolds, r.RCSHolds, r.QFTHolds)
		}
	}
	if out := FormatRobustness(rows); !strings.Contains(out, "variant") {
		t.Error("FormatRobustness malformed")
	}
}
