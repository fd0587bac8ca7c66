package noise

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDefaultValidates(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("Default params invalid: %v", err)
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	mods := map[string]func(*Params){
		"gamma":   func(p *Params) { p.Gamma = -1 },
		"eps":     func(p *Params) { p.Epsilon = -1 },
		"k0":      func(p *Params) { p.K0 = -0.1 },
		"oneq":    func(p *Params) { p.OneQubitError = 1.5 },
		"slope":   func(p *Params) { p.GateTimeSlope = -1 },
		"time1q":  func(p *Params) { p.OneQubitTimeUs = -1 },
		"rate":    func(p *Params) { p.ShuttleRateUmPerUs = 0 },
		"spacing": func(p *Params) { p.IonSpacingUm = 0 },
		"split":   func(p *Params) { p.SplitMergeFactor = -1 },
		"cool":    func(p *Params) { p.CoolingInterval = -1 },
		// NaN passes every ordered comparison and +Inf every lower bound.
		"gamma-nan": func(p *Params) { p.Gamma = math.NaN() },
		"k0-inf":    func(p *Params) { p.K0 = math.Inf(1) },
		"rate-inf":  func(p *Params) { p.ShuttleRateUmPerUs = math.Inf(1) },
		"hop-nan":   func(p *Params) { p.HopFactor = math.NaN() },
	}
	for name, mod := range mods {
		p := Default()
		mod(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: expected validation failure", name)
		}
	}
}

func TestGateTimeEq3(t *testing.T) {
	p := Default()
	// Eq. 3: τ(d) = 38d + 10.
	cases := map[int]float64{0: 10, 1: 48, 15: 580, 63: 2404}
	for d, want := range cases {
		if got := p.GateTime(d); math.Abs(got-want) > 1e-12 {
			t.Errorf("GateTime(%d) = %g, want %g", d, got, want)
		}
	}
}

func TestGateTimePanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("GateTime(-1) should panic")
		}
	}()
	p := Default()
	p.GateTime(-1)
}

func TestShuttleQuantaSqrtScaling(t *testing.T) {
	p := Default()
	k64 := p.ShuttleQuanta(64)
	k16 := p.ShuttleQuanta(16)
	if math.Abs(k64/k16-2) > 1e-12 {
		t.Errorf("k(64)/k(16) = %g, want 2 (√n scaling)", k64/k16)
	}
	if math.Abs(k64-1.0) > 1e-12 {
		t.Errorf("k(64) = %g, want 1.0 with default K0=0.125", k64)
	}
}

func TestTwoQubitErrorEq4(t *testing.T) {
	p := Default()
	// With zero quanta, err = Γτ + ε exactly (the (1+ε)^1 − 1 term).
	tau := p.GateTime(10)
	got := p.TwoQubitError(tau, 0)
	want := p.Gamma*tau + p.Epsilon
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("TwoQubitError(τ,0) = %g, want %g", got, want)
	}
	// Error grows monotonically with quanta.
	prev := 0.0
	for q := 0.0; q < 400; q += 25 {
		e := p.TwoQubitError(tau, q)
		if e < prev {
			t.Fatalf("error not monotone at quanta=%g: %g < %g", q, e, prev)
		}
		prev = e
	}
	// And clamps to 1 for absurd heating.
	if e := p.TwoQubitError(tau, 1e9); e != 1 {
		t.Errorf("extreme heating error = %g, want clamp to 1", e)
	}
	// Negative quanta treated as zero.
	if e := p.TwoQubitError(tau, -5); e != p.TwoQubitError(tau, 0) {
		t.Errorf("negative quanta not clamped: %g", e)
	}
}

func TestTwoQubitFidelityBounds(t *testing.T) {
	f := func(dRaw uint8, qRaw uint16) bool {
		p := Default()
		fid := p.TwoQubitFidelity(int(dRaw)%80, float64(qRaw)/10)
		return fid >= 0 && fid <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestFidelityDecreasesWithDistance(t *testing.T) {
	p := Default()
	prev := 2.0
	for d := 0; d < 64; d++ {
		f := p.TwoQubitFidelity(d, 1)
		if f >= prev {
			t.Fatalf("fidelity not decreasing at d=%d: %g >= %g", d, f, prev)
		}
		prev = f
	}
}

func TestOneQubitFidelity(t *testing.T) {
	p := Default()
	if got := p.OneQubitFidelity(); math.Abs(got-(1-1e-4)) > 1e-15 {
		t.Errorf("OneQubitFidelity = %g", got)
	}
}

func TestMoveTime(t *testing.T) {
	p := Default()
	// 16 spacings at 1 µm/spacing and 1 µm/µs = 16 µs.
	if got := p.MoveTime(16); math.Abs(got-16) > 1e-12 {
		t.Errorf("MoveTime(16) = %g, want 16", got)
	}
	if got := p.MoveTime(-16); math.Abs(got-16) > 1e-12 {
		t.Errorf("MoveTime(-16) = %g, want 16 (absolute)", got)
	}
	p.IonSpacingUm = 5
	if got := p.MoveTime(10); math.Abs(got-50) > 1e-12 {
		t.Errorf("MoveTime with 5µm spacing = %g, want 50", got)
	}
}

func TestPropertyErrorMonotoneInTau(t *testing.T) {
	f := func(t1Raw, t2Raw uint16, qRaw uint8) bool {
		p := Default()
		t1 := float64(t1Raw)
		t2 := float64(t2Raw)
		if t1 > t2 {
			t1, t2 = t2, t1
		}
		q := float64(qRaw)
		return p.TwoQubitError(t1, q) <= p.TwoQubitError(t2, q)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestEffectiveQuantaCoolsAfterInterval(t *testing.T) {
	p := Default()
	p.CoolingInterval = 3
	k := 2.0
	// Moves 1..3 accumulate 1k, 2k, 3k; cooling fires after move 3, so
	// move 4 restarts at 1k. The boundary move sees the full interval.
	want := []float64{2, 4, 6, 2, 4, 6, 2}
	for m := 1; m <= len(want); m++ {
		if got := p.EffectiveQuanta(m, k); math.Abs(got-want[m-1]) > 1e-12 {
			t.Errorf("EffectiveQuanta(%d) = %g, want %g", m, got, want[m-1])
		}
	}
}

func TestEffectiveQuantaWithoutCooling(t *testing.T) {
	p := Default()
	for m := 0; m <= 5; m++ {
		if got, want := p.EffectiveQuanta(m, 1.5), float64(m)*1.5; math.Abs(got-want) > 1e-12 {
			t.Errorf("EffectiveQuanta(%d) = %g, want %g", m, got, want)
		}
	}
	p.CoolingInterval = 4
	if got := p.EffectiveQuanta(0, 1.5); got != 0 {
		t.Errorf("EffectiveQuanta(0) = %g, want 0", got)
	}
}
