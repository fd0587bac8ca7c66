package tilt_test

import (
	"context"
	"net/url"
	"strings"
	"testing"

	tilt "repro"
)

func TestBackendsListsBuiltinSchemes(t *testing.T) {
	got := map[string]bool{}
	for _, s := range tilt.Backends() {
		got[s] = true
	}
	for _, want := range []string{"tilt", "qccd", "idealti", "linqd"} {
		if !got[want] {
			t.Errorf("Backends() = %v: missing builtin scheme %q", tilt.Backends(), want)
		}
	}
}

func TestOpenBuiltinSchemes(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		uri  string
		name string
	}{
		{"tilt://?ions=12&head=4", "TILT"},
		{"qccd://?ions=12", "QCCD"},
		{"idealti://?ions=12", "IdealTI"},
	}
	for _, tc := range cases {
		be, err := tilt.Open(ctx, tc.uri)
		if err != nil {
			t.Fatalf("Open(%q): %v", tc.uri, err)
		}
		if be.Name() != tc.name {
			t.Errorf("Open(%q).Name() = %q, want %q", tc.uri, be.Name(), tc.name)
		}
		res, err := tilt.Execute(ctx, be, tilt.GHZ(8).Circuit)
		if err != nil {
			t.Fatalf("Execute over Open(%q): %v", tc.uri, err)
		}
		if res.SuccessRate <= 0 || res.SuccessRate > 1 {
			t.Errorf("Open(%q): success rate %v out of range", tc.uri, res.SuccessRate)
		}
	}
}

func TestOpenAppliesQueryOptions(t *testing.T) {
	ctx := context.Background()
	// head=4 on a 16-wide circuit forces tape moves; the same circuit on
	// the default head-16 device needs none. Observable through TILTStats.
	narrow, err := tilt.Open(ctx, "tilt://?head=4")
	if err != nil {
		t.Fatal(err)
	}
	wide, err := tilt.Open(ctx, "tilt://")
	if err != nil {
		t.Fatal(err)
	}
	c := tilt.GHZ(16).Circuit
	rn, err := tilt.Execute(ctx, narrow, c)
	if err != nil {
		t.Fatal(err)
	}
	rw, err := tilt.Execute(ctx, wide, c)
	if err != nil {
		t.Fatal(err)
	}
	if rn.TILT.Moves <= rw.TILT.Moves {
		t.Errorf("head=4 moves (%d) not above head-16 moves (%d): query options ignored?",
			rn.TILT.Moves, rw.TILT.Moves)
	}

	// shots enables the Monte-Carlo cross-check.
	mc, err := tilt.Open(ctx, "tilt://?ions=8&head=8&shots=50&seed=3")
	if err != nil {
		t.Fatal(err)
	}
	res, err := tilt.Execute(ctx, mc, tilt.GHZ(8).Circuit)
	if err != nil {
		t.Fatal(err)
	}
	if res.MC == nil || res.MC.Shots != 50 || res.MC.Seed != 3 {
		t.Errorf("shots/seed query did not reach the backend: MC = %+v", res.MC)
	}
}

func TestOpenErrors(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		uri     string
		wantSub string
	}{
		{"nope://", `unknown scheme "nope"`},
		{"plain-string", "no scheme"},
		{"tilt://?bogus=1", `unknown parameter "bogus"`},
		{"tilt://?ions=abc", `parameter ions="abc"`},
		{"tilt://somehost?ions=4", "takes no host"},
		{"tilt://?placement=sideways", `placement="sideways"`},
		{"linqd://", "needs a host"},
		{"linqd://h:1?bogus=1", `unknown parameter "bogus"`},
	}
	for _, tc := range cases {
		_, err := tilt.Open(ctx, tc.uri)
		if err == nil || !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("Open(%q): err = %v, want substring %q", tc.uri, err, tc.wantSub)
		}
	}
}

func TestRegisterCustomSchemeAndCollisions(t *testing.T) {
	tilt.Register("registry-test", func(ctx context.Context, u *url.URL) (tilt.Backend, error) {
		return tilt.NewIdealTI(), nil
	})
	be, err := tilt.Open(context.Background(), "registry-test://")
	if err != nil || be.Name() != "IdealTI" {
		t.Fatalf("Open of custom scheme: %v, %v", be, err)
	}

	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("duplicate Register", func() {
		tilt.Register("registry-test", func(ctx context.Context, u *url.URL) (tilt.Backend, error) {
			return nil, nil
		})
	})
	mustPanic("empty scheme", func() { tilt.Register("", nil) })
	mustPanic("nil factory", func() { tilt.Register("registry-test-nil", nil) })
}

func TestOpenRejectsTrialsWithoutStochastic(t *testing.T) {
	ctx := context.Background()
	for _, uri := range []string{"tilt://?trials=500", "tilt://?inserter=linq&trials=500"} {
		if _, err := tilt.Open(ctx, uri); err == nil || !strings.Contains(err.Error(), "trials") {
			t.Errorf("Open(%q): err = %v, want trials rejection", uri, err)
		}
	}
	if _, err := tilt.Open(ctx, "tilt://?inserter=stochastic&trials=4&seed=1"); err != nil {
		t.Errorf("trials with stochastic inserter rejected: %v", err)
	}
}

// TestOpenNoiseKeys: gamma, epsilon, k0 and cooling each set only their own
// noise.Params field, so each composes with alpha and maxswaplen and with
// the other noise keys. An unparsable value fails at Open; a negative one
// goes in as given and noise.Params.Validate rejects it at run time.
func TestOpenNoiseKeys(t *testing.T) {
	ctx := context.Background()
	bv, err := tilt.BenchmarkByName("BV")
	if err != nil {
		t.Fatal(err)
	}
	// maxswaplen=2 changes BV's routing on a head-4 tape (30 swaps, not
	// 20), so a noise key that clobbered the swap options would show.
	swap := tilt.WithSwapOptions(tilt.SwapOptions{MaxSwapLen: 2, Alpha: 0.5})
	execute := func(be tilt.Backend) *tilt.Result {
		t.Helper()
		res, err := tilt.Execute(ctx, be, bv.Circuit)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	open := func(uri string) tilt.Backend {
		t.Helper()
		be, err := tilt.Open(ctx, uri)
		if err != nil {
			t.Fatal(err)
		}
		return be
	}
	plain := execute(tilt.NewTILT(tilt.WithDevice(0, 4), swap))

	cases := []struct {
		key, value string
		set        func(*tilt.NoiseParams)
		negative   string
		nonFinite  string // error for NaN, Inf and -Inf
	}{
		{"gamma", "1e-5", func(p *tilt.NoiseParams) { p.Gamma = 1e-5 }, "noise: negative Gamma -1", "noise: non-finite Gamma "},
		{"epsilon", "1e-3", func(p *tilt.NoiseParams) { p.Epsilon = 1e-3 }, "noise: negative Epsilon -1", "noise: non-finite Epsilon "},
		{"k0", "1", func(p *tilt.NoiseParams) { p.K0 = 1 }, "noise: negative K0 -1", "noise: non-finite K0 "},
		{"cooling", "1", func(p *tilt.NoiseParams) { p.CoolingInterval = 1 }, "noise: negative cooling interval -1", "parameter cooling="},
	}
	all := tilt.DefaultNoise()
	query := ""
	for _, tc := range cases {
		t.Run(tc.key, func(t *testing.T) {
			p := tilt.DefaultNoise()
			tc.set(&p)
			want := execute(tilt.NewTILT(tilt.WithDevice(0, 4), swap, tilt.WithNoise(p)))
			got := execute(open("tilt://?head=4&alpha=0.5&maxswaplen=2&" + tc.key + "=" + tc.value))
			if got.SuccessRate != want.SuccessRate || got.ExecTimeUs != want.ExecTimeUs ||
				got.TILT.SwapCount != want.TILT.SwapCount || got.TILT.SwapCount != plain.TILT.SwapCount {
				t.Errorf("%s=%s with alpha and maxswaplen: success %v, %v µs, %d swaps; want %v, %v µs, %d swaps",
					tc.key, tc.value, got.SuccessRate, got.ExecTimeUs, got.TILT.SwapCount,
					want.SuccessRate, want.ExecTimeUs, want.TILT.SwapCount)
			}
			if got.SuccessRate == plain.SuccessRate {
				t.Errorf("%s=%s left the success rate at the default noise's %v", tc.key, tc.value, plain.SuccessRate)
			}

			if _, err := tilt.Open(ctx, "tilt://?"+tc.key+"=abc"); err == nil ||
				!strings.Contains(err.Error(), "parameter "+tc.key+`="abc"`) {
				t.Errorf("%s=abc: err = %v", tc.key, err)
			}
			neg := open("tilt://?" + tc.key + "=-1")
			if _, err := tilt.Execute(ctx, neg, bv.Circuit); err == nil || !strings.Contains(err.Error(), tc.negative) {
				t.Errorf("%s=-1: err = %v, want %q", tc.key, err, tc.negative)
			}
			// ParseFloat accepts NaN and Inf; they must not reach the model.
			for _, v := range []string{"NaN", "Inf", "-Inf"} {
				be, err := tilt.Open(ctx, "tilt://?"+tc.key+"="+v)
				if err == nil {
					_, err = tilt.Execute(ctx, be, bv.Circuit)
				}
				if err == nil || !strings.Contains(err.Error(), tc.nonFinite) {
					t.Errorf("%s=%s: err = %v, want %q", tc.key, v, err, tc.nonFinite)
				}
			}
		})
		tc.set(&all)
		query += "&" + tc.key + "=" + tc.value
	}

	// All four keys together set all four fields.
	want := execute(tilt.NewTILT(tilt.WithDevice(0, 4), swap, tilt.WithNoise(all)))
	if got := execute(open("tilt://?head=4&alpha=0.5&maxswaplen=2" + query)); got.SuccessRate != want.SuccessRate {
		t.Errorf("all four noise keys: success %v, want %v", got.SuccessRate, want.SuccessRate)
	}

	// A hotter trap lowers the success rate.
	cool := execute(open("tilt://?head=4&gamma=1e-6"))
	hot := execute(open("tilt://?head=4&gamma=1e-5"))
	if !(hot.SuccessRate < cool.SuccessRate) {
		t.Errorf("gamma 1e-5 success %v not below gamma 1e-6's %v", hot.SuccessRate, cool.SuccessRate)
	}
}
