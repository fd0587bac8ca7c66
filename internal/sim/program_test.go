package sim_test

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/mapping"
	"repro/internal/noise"
	"repro/internal/render"
	"repro/internal/sim"
	"repro/internal/swapins"
	"repro/internal/workloads"
)

var bits = math.Float64bits

// sameResult reports whether two results agree on every field, bit for bit.
func sameResult(a, b *sim.Result) bool {
	return bits(a.SuccessRate) == bits(b.SuccessRate) && bits(a.LogSuccess) == bits(b.LogSuccess) &&
		bits(a.ExecTimeUs) == bits(b.ExecTimeUs) && a.Moves == b.Moves && a.DistSpacings == b.DistSpacings &&
		bits(a.DistUm) == bits(b.DistUm) && a.OneQubitGates == b.OneQubitGates &&
		a.TwoQubitGates == b.TwoQubitGates && a.SwapGates == b.SwapGates &&
		bits(a.MeanTwoQubitFidelity) == bits(b.MeanTwoQubitFidelity)
}

// checkTILT holds one TILT program's Simulate result, event list and
// fidelity profile to the reference walks, bit for bit.
func checkTILT(t *testing.T, name string, cr *core.CompileResult, dev device.TILT, p noise.Params) {
	t.Helper()
	ctx := context.Background()
	want, wantErr := refSimulate(ctx, cr.Physical, cr.Schedule, dev, p)
	got, err := sim.Simulate(ctx, cr.Physical, cr.Schedule, dev, p)
	if wantErr != nil || err != nil {
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("%s: Simulate err = %v, reference %v", name, err, wantErr)
		}
		return
	}
	if !sameResult(got, want) {
		t.Fatalf("%s: Simulate = %+v\nreference  %+v", name, *got, *want)
	}

	prog, err := sim.Prepare(ctx, cr.Physical, cr.Schedule, dev, p)
	if err != nil {
		t.Fatal(err)
	}
	refEvs, err := refEvents(cr.Physical, cr.Schedule, dev, p)
	if err != nil {
		t.Fatal(err)
	}
	evs := prog.Events()
	if len(evs) != len(refEvs) {
		t.Fatalf("%s: %d events, reference %d", name, len(evs), len(refEvs))
	}
	for i, ev := range evs {
		r := refEvs[i]
		if bits(ev.P) != bits(r.p) || ev.Reps != r.reps || !reflect.DeepEqual(prog.Circuit().Gate(ev.Gate), r.gate) {
			t.Fatalf("%s: event %d = (p %v, reps %d, gate %v), reference (%v, %d, %v)",
				name, i, ev.P, ev.Reps, prog.Circuit().Gate(ev.Gate), r.p, r.reps, r.gate)
		}
	}

	rows, refRows := render.Profile(cr.Physical, cr.Schedule, dev, p), refProfile(cr.Physical, cr.Schedule, dev, p)
	if len(rows) != len(refRows) {
		t.Fatalf("%s: %d profile rows, reference %d", name, len(rows), len(refRows))
	}
	for i, r := range rows {
		w := refRows[i]
		if r.Step != w.Step || r.Pos != w.Pos || r.TwoQubit != w.TwoQubit ||
			bits(r.Quanta) != bits(w.Quanta) || bits(r.MeanFid) != bits(w.MeanFid) {
			t.Fatalf("%s: profile row %d = %+v, reference %+v", name, i, r, w)
		}
	}
}

// checkIdeal holds one IdealTI program's SimulateIdeal result to the
// reference walk, bit for bit.
func checkIdeal(t *testing.T, name string, mapped *circuit.Circuit, dev device.IdealTI, p noise.Params) {
	t.Helper()
	ctx := context.Background()
	want, wantErr := refSimulateIdeal(ctx, mapped, dev, p)
	got, err := sim.SimulateIdeal(ctx, mapped, dev, p)
	if wantErr != nil || err != nil {
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("%s: SimulateIdeal err = %v, reference %v", name, err, wantErr)
		}
		return
	}
	if !sameResult(got, want) {
		t.Fatalf("%s: SimulateIdeal = %+v\nreference       %+v", name, *got, *want)
	}
}

func TestProgramMatchesReference(t *testing.T) {
	// The Table II suite at three head sizes, with sympathetic cooling off,
	// every move and every third move, under the default noise and under
	// an ε that clamps every heated two-qubit error to 1.
	var noises []noise.Params
	for _, eps := range []float64{noise.Default().Epsilon, 0.5} {
		for _, iv := range []int{0, 1, 3} {
			p := noise.Default()
			p.Epsilon, p.CoolingInterval = eps, iv
			noises = append(noises, p)
		}
	}
	clamped := false
	for _, bm := range workloads.All() {
		n := bm.Qubits()
		for _, head := range []int{4, 8, 16} {
			cfg := core.Config{
				Device:    device.TILT{NumIons: n, HeadSize: head},
				Placement: mapping.ProgramOrderPlacement,
				Inserter:  swapins.LinQ{},
			}
			cr, err := core.CompileWith(context.Background(), bm.Circuit, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range noises {
				checkTILT(t, fmt.Sprintf("%s head %d ε %g cooling %d", bm.Name, head, p.Epsilon, p.CoolingInterval), cr, cfg.Device, p)
				if p.Epsilon == 0.5 && !clamped {
					prog, err := sim.Prepare(context.Background(), cr.Physical, cr.Schedule, cfg.Device, p)
					if err != nil {
						t.Fatal(err)
					}
					for _, ev := range prog.Events() {
						clamped = clamped || ev.P == 1
					}
				}
			}
		}
		_, mapped, err := core.PlaceIdeal(bm.Circuit, n)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range noises {
			checkIdeal(t, fmt.Sprintf("%s IdealTI ε %g", bm.Name, p.Epsilon), mapped, device.IdealTI{NumIons: n}, p)
		}
	}
	if !clamped {
		t.Error("no event clamped to p = 1; the safeLog1p floor went untested")
	}
}

func FuzzSimulateMatchesReference(f *testing.F) {
	f.Add([]byte{10, 0, 4, 0, 7, 40, 2, 1, 3, 0x19, 7, 0x42, 11, 0x90, 3, 0x05})
	f.Add([]byte{12, 2, 3, 1, 200, 255, 1, 0, 3, 0xb0, 7, 0x1c, 3, 0x4b, 7, 0xa5, 3, 0xff, 0, 1})
	f.Add([]byte{4, 0, 4, 0, 0, 0, 0, 2, 3, 1, 3, 2, 3, 3})
	f.Add([]byte{2, 0, 2, 0, 9, 9, 9, 9})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 8 {
			return
		}
		n := 2 + int(data[0])%11
		ions := n + int(data[1])%4
		head := 2 + int(data[2])%(ions-1)
		msl := int(data[3]) % head
		dev := device.TILT{NumIons: ions, HeadSize: head}
		p := noise.Default()
		p.Gamma = float64(data[4]) * 1e-7
		p.Epsilon = math.Pow(10, -6+float64(data[5])/40) // 1e-6 … ~2.4: small to clamping
		p.CoolingInterval = int(data[6]) % 5
		p.K0 = float64(data[7]%8) / 16
		placement := []mapping.Strategy{mapping.IdentityPlacement, mapping.GreedyPlacement, mapping.ProgramOrderPlacement}[int(data[7]>>3)%3]

		body := data[8:]
		if len(body) > 2*96 {
			body = body[:2*96]
		}
		c := circuit.New(n)
		for ; len(body) >= 2; body = body[2:] {
			a, b := int(body[0]), int(body[1])
			theta := float64(a>>3+1) * math.Pi / 32
			q0 := b % n
			q1 := (q0 + 1 + (b/n)%(n-1)) % n
			switch a % 8 {
			case 0:
				c.ApplyRX(theta, q0)
			case 1:
				c.ApplyRY(theta, q0)
			case 2:
				c.ApplyRZ(theta, q0)
			case 3:
				c.ApplyH(q0)
			case 4:
				c.ApplyMeasure(q0)
			case 5:
				c.ApplySWAP(q0, q1)
			case 6:
				c.ApplyCNOT(q0, q1)
			default:
				c.ApplyXX(theta, q0, q1)
			}
		}

		cfg := core.Config{Device: dev, Noise: &p, Placement: placement, Swap: swapins.Options{MaxSwapLen: msl}}
		cr, err := core.CompileWith(context.Background(), c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("%d qubits on %+v, maxswaplen %d, noise %+v", n, dev, msl, p)
		checkTILT(t, name, cr, dev, p)
		_, mapped, err := core.PlaceIdeal(c, ions)
		if err != nil {
			t.Fatal(err)
		}
		checkIdeal(t, name, mapped, device.IdealTI{NumIons: ions}, p)
	})
}
