package tilt

import (
	"context"
	"fmt"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// This file is the backend registry: a process-wide table mapping URI
// schemes to backend factories, so callers obtain execution engines by name
// — tilt.Open(ctx, "tilt://?ions=64&head=16") — instead of hard-wiring
// constructors. The three in-process backends and the linqd remote client
// self-register at init; applications register their own schemes with
// Register, exactly as database/sql drivers do.

// Factory builds a backend from a parsed backend URI. The scheme has
// already been matched; factories read u.Host and u.Query() for their
// configuration and must return a descriptive error (not panic) on
// malformed URIs.
type Factory func(ctx context.Context, u *url.URL) (Backend, error)

var (
	registryMu sync.RWMutex
	registry   = make(map[string]Factory)
)

// Register makes a backend factory available to Open under the given URI
// scheme (case-insensitive). It panics if the scheme is empty, the factory
// is nil, or the scheme is already registered — registration collisions are
// programming errors, caught at init like database/sql driver clashes.
func Register(scheme string, f Factory) {
	scheme = strings.ToLower(scheme)
	if scheme == "" {
		panic("tilt: Register with empty scheme")
	}
	if f == nil {
		panic("tilt: Register with nil factory for scheme " + scheme)
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[scheme]; dup {
		panic("tilt: Register called twice for scheme " + scheme)
	}
	registry[scheme] = f
}

// Backends returns the registered URI schemes, sorted — the discovery
// surface behind linqd's /v1/backends listing and Open's unknown-scheme
// error.
func Backends() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	schemes := make([]string, 0, len(registry))
	for s := range registry {
		schemes = append(schemes, s)
	}
	sort.Strings(schemes)
	return schemes
}

// Open resolves a backend URI against the registry and builds the backend.
// The scheme selects the factory; everything after it is factory-specific
// configuration. The built-in schemes:
//
//	tilt://?ions=64&head=16&maxswaplen=14   the TILT backend (NewTILT)
//	qccd://?ions=64&capacities=15,25,35     the QCCD baseline (NewQCCD)
//	idealti://?ions=64                      the ideal trapped-ion bound (NewIdealTI)
//	linqd://127.0.0.1:8080?backend=TILT     a remote linqd daemon (Remote)
//	linqd://host:8080?key=K&tenant=alice    ... authenticating as a tenant
//	                                        (key = API key, sent as a Bearer
//	                                        token; tenant optionally asserts
//	                                        the identity the key must own)
//
// The in-process schemes share one query vocabulary: ions, head, maxswaplen,
// alpha, gamma, epsilon, k0, cooling (the noise.Params fields Gamma,
// Epsilon, K0 and CoolingInterval), placement (identity|greedy|program),
// inserter (linq|stochastic), trials, seed, shots, mcworkers, cache,
// optimize, capacities. Unknown
// parameters are rejected, so typos fail loudly at Open time rather than
// silently running a default configuration.
func Open(ctx context.Context, uri string) (Backend, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	u, err := url.Parse(uri)
	if err != nil {
		return nil, fmt.Errorf("tilt: Open %q: %w", uri, err)
	}
	if u.Scheme == "" {
		return nil, fmt.Errorf("tilt: Open %q: no scheme; want one of %s",
			uri, strings.Join(Backends(), ", "))
	}
	registryMu.RLock()
	f, ok := registry[strings.ToLower(u.Scheme)]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("tilt: Open %q: unknown scheme %q; registered: %s",
			uri, u.Scheme, strings.Join(Backends(), ", "))
	}
	b, err := f(ctx, u)
	if err != nil {
		return nil, fmt.Errorf("tilt: Open %q: %w", uri, err)
	}
	return b, nil
}

func init() {
	Register("tilt", func(ctx context.Context, u *url.URL) (Backend, error) {
		opts, err := optionsFromURI(u)
		if err != nil {
			return nil, err
		}
		return NewTILT(opts...), nil
	})
	Register("qccd", func(ctx context.Context, u *url.URL) (Backend, error) {
		opts, err := optionsFromURI(u)
		if err != nil {
			return nil, err
		}
		return NewQCCD(opts...), nil
	})
	Register("idealti", func(ctx context.Context, u *url.URL) (Backend, error) {
		opts, err := optionsFromURI(u)
		if err != nil {
			return nil, err
		}
		return NewIdealTI(opts...), nil
	})
}

// optionsFromURI translates the shared in-process query vocabulary into
// functional options. In-process schemes carry no host (the engine lives in
// this process), so a host is rejected as a probable linqd:// mix-up.
func optionsFromURI(u *url.URL) ([]Option, error) {
	if u.Host != "" {
		return nil, fmt.Errorf("scheme %q runs in-process and takes no host (got %q); use linqd://%s for a remote daemon",
			u.Scheme, u.Host, u.Host)
	}
	q := u.Query()
	var opts []Option

	ions, err := intParam(q, "ions", 0)
	if err != nil {
		return nil, err
	}
	head, err := intParam(q, "head", 16)
	if err != nil {
		return nil, err
	}
	if q.Has("ions") || q.Has("head") {
		opts = append(opts, WithDevice(ions, head))
	}
	if q.Has("maxswaplen") {
		v, err := intParam(q, "maxswaplen", 0)
		if err != nil {
			return nil, err
		}
		opts = append(opts, WithMaxSwapLen(v))
	}
	if q.Has("alpha") {
		v, err := strconv.ParseFloat(q.Get("alpha"), 64)
		if err != nil {
			return nil, fmt.Errorf("parameter alpha=%q: %w", q.Get("alpha"), err)
		}
		// Set the field directly so alpha composes with maxswaplen instead
		// of clobbering it through WithSwapOptions's whole-struct replace.
		opts = append(opts, func(c *config) { c.core.Swap.Alpha = v })
	}
	for _, nk := range []struct {
		key   string
		field func(*NoiseParams) *float64
	}{
		{"gamma", func(p *NoiseParams) *float64 { return &p.Gamma }},
		{"epsilon", func(p *NoiseParams) *float64 { return &p.Epsilon }},
		{"k0", func(p *NoiseParams) *float64 { return &p.K0 }},
	} {
		if !q.Has(nk.key) {
			continue
		}
		v, err := strconv.ParseFloat(q.Get(nk.key), 64)
		if err != nil {
			return nil, fmt.Errorf("parameter %s=%q: %w", nk.key, q.Get(nk.key), err)
		}
		opts = append(opts, withNoiseField(func(p *NoiseParams) { *nk.field(p) = v }))
	}
	if q.Has("cooling") {
		v, err := intParam(q, "cooling", 0)
		if err != nil {
			return nil, err
		}
		opts = append(opts, withNoiseField(func(p *NoiseParams) { p.CoolingInterval = v }))
	}
	if q.Has("placement") {
		switch v := q.Get("placement"); v {
		case "identity":
			opts = append(opts, WithPlacement(IdentityPlacement))
		case "greedy":
			opts = append(opts, WithPlacement(GreedyPlacement))
		case "program":
			opts = append(opts, WithPlacement(ProgramOrderPlacement))
		default:
			return nil, fmt.Errorf("parameter placement=%q: want identity, greedy, or program", v)
		}
	}
	seed, err := intParam(q, "seed", 0)
	if err != nil {
		return nil, err
	}
	if q.Has("trials") && q.Get("inserter") != "stochastic" {
		// Only the stochastic inserter reads trials; accepting it anywhere
		// else would silently run a default configuration.
		return nil, fmt.Errorf("parameter trials requires inserter=stochastic")
	}
	if q.Has("inserter") {
		switch v := q.Get("inserter"); v {
		case "linq":
			opts = append(opts, WithInserter(LinQInserter()))
		case "stochastic":
			trials, err := intParam(q, "trials", 0)
			if err != nil {
				return nil, err
			}
			opts = append(opts, WithInserter(StochasticInserter(trials, int64(seed))))
		default:
			return nil, fmt.Errorf("parameter inserter=%q: want linq or stochastic", v)
		}
	}
	if q.Has("shots") {
		v, err := intParam(q, "shots", 0)
		if err != nil {
			return nil, err
		}
		opts = append(opts, WithShots(v))
	}
	if q.Has("seed") {
		opts = append(opts, WithSeed(int64(seed)))
	}
	if q.Has("mcworkers") {
		v, err := intParam(q, "mcworkers", 0)
		if err != nil {
			return nil, err
		}
		opts = append(opts, WithMCWorkers(v))
	}
	if q.Has("cache") {
		v, err := intParam(q, "cache", 0)
		if err != nil {
			return nil, err
		}
		opts = append(opts, WithCompileCache(v))
	}
	if q.Has("optimize") {
		v, err := boolParam(q, "optimize")
		if err != nil {
			return nil, err
		}
		if v {
			opts = append(opts, WithOptimize())
		}
	}
	if q.Has("capacities") {
		var caps []int
		for _, part := range strings.Split(q.Get("capacities"), ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				return nil, fmt.Errorf("parameter capacities=%q: %w", q.Get("capacities"), err)
			}
			caps = append(caps, n)
		}
		opts = append(opts, WithCapacities(caps...))
	}

	known := map[string]bool{
		"ions": true, "head": true, "maxswaplen": true, "alpha": true,
		"gamma": true, "epsilon": true, "k0": true, "cooling": true,
		"placement": true, "inserter": true, "trials": true, "seed": true,
		"shots": true, "mcworkers": true, "cache": true, "optimize": true,
		"capacities": true,
	}
	for k := range q {
		if !known[k] {
			return nil, fmt.Errorf("unknown parameter %q (known: ions, head, maxswaplen, alpha, gamma, epsilon, k0, cooling, placement, inserter, trials, seed, shots, mcworkers, cache, optimize, capacities)", k)
		}
	}
	return opts, nil
}

// withNoiseField sets one noise.Params field over whatever noise model the
// earlier options chose (DefaultNoise when none), so the noise keys compose
// with each other the way alpha composes with maxswaplen. Values go in as
// given: noise.Params.Validate rejects a negative one when the backend runs.
func withNoiseField(set func(*NoiseParams)) Option {
	return func(c *config) {
		p := c.core.NoiseParams()
		set(&p)
		c.core.Noise = &p
	}
}

// intParam parses an integer query parameter, with a default when absent.
func intParam(q url.Values, name string, def int) (int, error) {
	if !q.Has(name) {
		return def, nil
	}
	v, err := strconv.Atoi(q.Get(name))
	if err != nil {
		return 0, fmt.Errorf("parameter %s=%q: %w", name, q.Get(name), err)
	}
	return v, nil
}

// boolParam parses a boolean query parameter; a bare "optimize" (empty
// value) reads as true.
func boolParam(q url.Values, name string) (bool, error) {
	raw := q.Get(name)
	if raw == "" {
		return true, nil
	}
	v, err := strconv.ParseBool(raw)
	if err != nil {
		return false, fmt.Errorf("parameter %s=%q: %w", name, raw, err)
	}
	return v, nil
}
