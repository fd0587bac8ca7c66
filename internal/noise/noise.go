// Package noise implements the paper's fidelity and timing models:
//
//   - Eq. 3: AM two-qubit gate time τ(d) = 38·d + 10 µs for ion distance d;
//   - Eq. 4: two-qubit gate fidelity after heating,
//     F = 1 − Γτ − ((1+ε)^(2q+1) − 1), where q is the motional quanta
//     accumulated in the chain (q = m·k after m tape moves);
//   - §III-A/IV-E: per-shuttle heating k = k₀·√n for an n-ion chain;
//   - Eq. 5: program execution time t_exe = t_m·dist + Σ_d t_d.
//
// The paper states the functional forms but not every constant; Params
// carries calibrated defaults (documented in the README's "Calibration and
// substitutions" section) and every value is injectable so studies can explore other operating points.
package noise

import (
	"fmt"
	"math"
)

// Params collects every noise/timing constant used by the simulators.
// The methods the simulators call once per gate take a pointer receiver:
// Params is a dozen words, and a value receiver copies all of them on
// every call that is not inlined.
type Params struct {
	// Gamma is the background heating rate of the trap in 1/µs; it
	// contributes Γ·τ to each two-qubit gate error (Eq. 4).
	Gamma float64
	// Epsilon is the residual phase-space-closure error per two-qubit gate
	// (ε in Eq. 4); heating amplifies it as (1+ε)^(2q+1) − 1.
	Epsilon float64
	// K0 scales the per-shuttle heating: a move of an n-ion chain adds
	// K0·√n motional quanta (paper §III-A).
	K0 float64
	// OneQubitError is the constant error of a single-qubit gate
	// (thermally insensitive, §IV-E).
	OneQubitError float64
	// GateTimeSlope and GateTimeOffset define Eq. 3:
	// τ(d) = slope·d + offset in µs.
	GateTimeSlope  float64
	GateTimeOffset float64
	// OneQubitTimeUs is the duration of a single-qubit rotation in µs.
	OneQubitTimeUs float64
	// ShuttleRateUmPerUs is the tape shuttling speed t_m (paper: 1 µm/µs).
	ShuttleRateUmPerUs float64
	// IonSpacingUm converts ion-spacing distances to µm for Eq. 5 and the
	// Table III "dist" column. The paper's reported distances are
	// consistent with ~1 µm per spacing; physical traps are ~5 µm.
	IonSpacingUm float64
	// SplitMergeFactor multiplies the linear-shuttle heating for QCCD
	// split and merge primitives (which the paper notes are significantly
	// hotter than linear shuttles).
	SplitMergeFactor float64
	// HopFactor multiplies the linear-shuttle heating for a QCCD
	// inter-trap segment crossing by a single ion.
	HopFactor float64
	// CoolingInterval, when positive, models sympathetic cooling (§VII):
	// after every CoolingInterval tape moves the chain's accumulated
	// motional quanta reset to zero.
	CoolingInterval int
}

// Default returns the calibrated parameter set used for the paper
// reproduction (the README's "Calibration and substitutions" section lists
// each constant and whether the paper or the calibration fixes it).
func Default() Params {
	return Params{
		Gamma:              1e-6,
		Epsilon:            5e-5,
		K0:                 0.125,
		OneQubitError:      1e-4,
		GateTimeSlope:      38,
		GateTimeOffset:     10,
		OneQubitTimeUs:     10,
		ShuttleRateUmPerUs: 1,
		IonSpacingUm:       1,
		SplitMergeFactor:   3,
		HopFactor:          1,
	}
}

// Validate rejects non-physical parameter sets.
func (p Params) Validate() error {
	for _, f := range [...]struct {
		name string
		v    float64
	}{
		{"Gamma", p.Gamma}, {"Epsilon", p.Epsilon}, {"K0", p.K0},
		{"OneQubitError", p.OneQubitError}, {"GateTimeSlope", p.GateTimeSlope},
		{"GateTimeOffset", p.GateTimeOffset}, {"OneQubitTimeUs", p.OneQubitTimeUs},
		{"ShuttleRateUmPerUs", p.ShuttleRateUmPerUs}, {"IonSpacingUm", p.IonSpacingUm},
		{"SplitMergeFactor", p.SplitMergeFactor}, {"HopFactor", p.HopFactor},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("noise: non-finite %s %g", f.name, f.v)
		}
	}
	switch {
	case p.Gamma < 0:
		return fmt.Errorf("noise: negative Gamma %g", p.Gamma)
	case p.Epsilon < 0:
		return fmt.Errorf("noise: negative Epsilon %g", p.Epsilon)
	case p.K0 < 0:
		return fmt.Errorf("noise: negative K0 %g", p.K0)
	case p.OneQubitError < 0 || p.OneQubitError >= 1:
		return fmt.Errorf("noise: OneQubitError %g outside [0,1)", p.OneQubitError)
	case p.GateTimeSlope < 0 || p.GateTimeOffset < 0:
		return fmt.Errorf("noise: negative gate-time coefficients")
	case p.OneQubitTimeUs < 0:
		return fmt.Errorf("noise: negative OneQubitTimeUs")
	case p.ShuttleRateUmPerUs <= 0:
		return fmt.Errorf("noise: non-positive shuttle rate %g", p.ShuttleRateUmPerUs)
	case p.IonSpacingUm <= 0:
		return fmt.Errorf("noise: non-positive ion spacing %g", p.IonSpacingUm)
	case p.SplitMergeFactor < 0 || p.HopFactor < 0:
		return fmt.Errorf("noise: negative QCCD heating factors")
	case p.CoolingInterval < 0:
		return fmt.Errorf("noise: negative cooling interval %d", p.CoolingInterval)
	}
	return nil
}

// GateTime returns the AM two-qubit gate duration τ(d) in µs (Eq. 3) for a
// gate spanning d ion spacings.
func (p *Params) GateTime(d int) float64 {
	if d < 0 {
		panic(fmt.Sprintf("noise: negative gate distance %d", d))
	}
	return p.GateTimeSlope*float64(d) + p.GateTimeOffset
}

// ShuttleQuanta returns the motional quanta k added to an n-ion chain by one
// linear shuttle: k = K0·√n (paper §III-A).
func (p *Params) ShuttleQuanta(n int) float64 {
	if n < 0 {
		panic(fmt.Sprintf("noise: negative chain length %d", n))
	}
	return p.K0 * math.Sqrt(float64(n))
}

// EffectiveQuanta returns the motional quanta the chain carries during the
// gates of move number moves (1-based), where each tape move adds k quanta
// (k = ShuttleQuanta(n)). With sympathetic cooling enabled
// (CoolingInterval = C > 0) the chain is re-cooled *after* every C-th move:
// the gates of move C still see the full C·k quanta, and move C+1 starts a
// fresh accumulation at 1·k. The TILT models read it through one walk,
// sim.Prepare, whose event list the analytic fold, the Monte-Carlo engine
// and the fidelity profile share.
func (p *Params) EffectiveQuanta(moves int, k float64) float64 {
	if p.CoolingInterval > 0 && moves > 0 {
		moves = (moves-1)%p.CoolingInterval + 1
	}
	return float64(moves) * k
}

// TwoQubitError returns the Eq. 4 error of a two-qubit gate with duration
// tau (µs) executed while the chain carries the given motional quanta:
// err = Γτ + ((1+ε)^(2·quanta+1) − 1), clamped to [0, 1].
func (p *Params) TwoQubitError(tau, quanta float64) float64 {
	return p.TwoQubitErrorLog(tau, quanta, math.Log1p(p.Epsilon))
}

// TwoQubitErrorLog is TwoQubitError with log1pEps = log1p(Epsilon) supplied
// by the caller, so a simulator that evaluates Eq. 4 once per gate computes
// the logarithm once per run. Passing math.Log1p(p.Epsilon) gives exactly
// TwoQubitError's result.
func (p *Params) TwoQubitErrorLog(tau, quanta, log1pEps float64) float64 {
	if quanta < 0 {
		quanta = 0
	}
	// (1+ε)^(2q+1) − 1 computed in log space for numerical stability.
	amp := math.Expm1((2*quanta + 1) * log1pEps)
	err := p.Gamma*tau + amp
	if err < 0 {
		return 0
	}
	if err > 1 {
		return 1
	}
	return err
}

// TwoQubitFidelity returns 1 − TwoQubitError for a gate spanning d spacings.
func (p *Params) TwoQubitFidelity(d int, quanta float64) float64 {
	return 1 - p.TwoQubitError(p.GateTime(d), quanta)
}

// OneQubitFidelity returns the constant single-qubit gate fidelity.
func (p Params) OneQubitFidelity() float64 { return 1 - p.OneQubitError }

// MoveTime returns the duration in µs of a tape move spanning the given
// number of ion spacings.
func (p *Params) MoveTime(spacings int) float64 {
	if spacings < 0 {
		spacings = -spacings
	}
	return float64(spacings) * p.IonSpacingUm / p.ShuttleRateUmPerUs
}
