package render

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/mapping"
	"repro/internal/noise"
	"repro/internal/swapins"
	"repro/internal/workloads"
)

func compileQFT(t *testing.T) (*core.CompileResult, core.Config) {
	t.Helper()
	cfg := core.Config{
		Device:    device.TILT{NumIons: 16, HeadSize: 4},
		Placement: mapping.ProgramOrderPlacement,
		Inserter:  swapins.LinQ{},
	}
	cr, err := core.CompileWith(context.Background(), workloads.QFTN(16).Circuit, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return cr, cfg
}

func TestTimelineShape(t *testing.T) {
	cr, cfg := compileQFT(t)
	out := Timeline(cr.Schedule, cfg.Device)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != cr.Schedule.Moves+1 {
		t.Fatalf("timeline has %d lines, want %d", len(lines), cr.Schedule.Moves+1)
	}
	// Every row must contain exactly HeadSize '#' marks (scale 1 for 16
	// ions) inside the chain extent.
	for _, line := range lines[1:] {
		if got := strings.Count(line, "#"); got != cfg.Device.HeadSize {
			t.Fatalf("row %q has %d '#', want %d", line, got, cfg.Device.HeadSize)
		}
	}
}

func TestTimelineScalesWideChains(t *testing.T) {
	dev := device.TILT{NumIons: 256, HeadSize: 16}
	cfg := core.Config{Device: dev, Placement: mapping.ProgramOrderPlacement}
	cr, err := core.CompileWith(context.Background(), workloads.GHZ(256).Circuit, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := Timeline(cr.Schedule, dev)
	for _, line := range strings.Split(out, "\n") {
		if len(line) > 110 {
			t.Fatalf("timeline row too wide (%d chars): %q", len(line), line)
		}
	}
	if !strings.Contains(out, "1 column =") {
		t.Error("wide chain should report column scaling")
	}
}

func TestProfileDecays(t *testing.T) {
	cr, cfg := compileQFT(t)
	rows := Profile(cr.Physical, cr.Schedule, cfg.Device, noise.Default())
	if len(rows) != cr.Schedule.Moves {
		t.Fatalf("profile rows = %d, want %d", len(rows), cr.Schedule.Moves)
	}
	// Quanta grow monotonically without cooling.
	for i := 1; i < len(rows); i++ {
		if rows[i].Quanta <= rows[i-1].Quanta {
			t.Fatalf("quanta not increasing at step %d", i)
		}
	}
	// Fidelity in bounds, and the last two-qubit-bearing step is no better
	// than the first.
	var first, last float64 = -1, -1
	for _, r := range rows {
		if r.MeanFid < 0 || r.MeanFid > 1 {
			t.Fatalf("fidelity %g out of bounds", r.MeanFid)
		}
		if r.TwoQubit > 0 {
			if first < 0 {
				first = r.MeanFid
			}
			last = r.MeanFid
		}
	}
	if first < 0 {
		t.Fatal("no two-qubit steps found")
	}
	if last > first {
		t.Errorf("fidelity improved over the run: first %g, last %g", first, last)
	}
}

func TestProfileHonorsCooling(t *testing.T) {
	cr, cfg := compileQFT(t)
	p := noise.Default()
	p.CoolingInterval = 2
	rows := Profile(cr.Physical, cr.Schedule, cfg.Device, p)
	k := p.ShuttleQuanta(cfg.Device.NumIons)
	for _, r := range rows {
		if r.Quanta > float64(p.CoolingInterval)*k {
			t.Fatalf("step %d quanta %g exceeds cooling ceiling", r.Step, r.Quanta)
		}
	}
}

func TestFormatProfileAndSummary(t *testing.T) {
	cr, cfg := compileQFT(t)
	rows := Profile(cr.Physical, cr.Schedule, cfg.Device, noise.Default())
	out := FormatProfile(rows)
	if !strings.Contains(out, "fidelity decay profile") {
		t.Error("FormatProfile header missing")
	}
	sum := Summary(cr.Physical, cr.Schedule, cfg.Device)
	if !strings.Contains(sum, "moves covering") || !strings.Contains(sum, "SWAP") {
		t.Errorf("Summary malformed: %s", sum)
	}
}

func TestFidelityBar(t *testing.T) {
	if fidelityBar(0.5) != "!" {
		t.Error("low fidelity should mark '!'")
	}
	if got := fidelityBar(1.0); len(got) != 20 {
		t.Errorf("perfect fidelity bar length = %d, want 20", len(got))
	}
	if got := fidelityBar(0.995); len(got) != 10 {
		t.Errorf("mid fidelity bar length = %d, want 10", len(got))
	}
}
