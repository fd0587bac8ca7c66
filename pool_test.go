package tilt_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	tilt "repro"
)

// countingBackend is a pool member that counts calls and can fail on
// command.
type countingBackend struct {
	name     string
	compiles atomic.Int64
	sims     atomic.Int64
	fail     error
}

func (f *countingBackend) Name() string { return f.name }

func (f *countingBackend) Compile(ctx context.Context, c *tilt.Circuit) (*tilt.Artifact, error) {
	f.compiles.Add(1)
	if f.fail != nil {
		return nil, f.fail
	}
	return &tilt.Artifact{Backend: f.name, Circuit: c}, nil
}

func (f *countingBackend) Simulate(ctx context.Context, a *tilt.Artifact) (*tilt.Result, error) {
	f.sims.Add(1)
	if f.fail != nil {
		return nil, f.fail
	}
	return &tilt.Result{Backend: f.name, SuccessRate: 0.5}, nil
}

func TestPoolValidation(t *testing.T) {
	if _, err := tilt.Pool(nil); !errors.Is(err, tilt.ErrEmptyPool) {
		t.Errorf("Pool(nil): err = %v, want ErrEmptyPool", err)
	}
	if _, err := tilt.Pool([]tilt.Backend{nil}); err == nil {
		t.Error("Pool with a nil member succeeded")
	}
}

func TestPoolRoutesSimulateToCompilingMember(t *testing.T) {
	// Hold a Simulate in flight on a so the next compiles land on b, then
	// simulate b's artifacts once both members are idle, when a fresh pick
	// would choose a: only following the artifact reaches b.
	ctx := context.Background()
	gate := make(chan struct{})
	a := &blockingBackend{name: "a", gate: gate}
	b := &countingBackend{name: "b"}
	p, err := tilt.Pool([]tilt.Backend{a, b})
	if err != nil {
		t.Fatal(err)
	}
	circ := tilt.GHZ(4).Circuit
	held, err := p.Compile(ctx, circ)
	if err != nil {
		t.Fatal(err)
	}
	if held.Backend != "a" {
		t.Fatalf("first pick went to %s, want a", held.Backend)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = p.Simulate(ctx, held)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for a.inSim.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	var onB []*tilt.Artifact
	for i := 0; i < 3; i++ {
		art, err := p.Compile(ctx, circ)
		if err != nil {
			t.Fatal(err)
		}
		if art.Backend != "b" {
			t.Fatalf("compile %d went to loaded member %s, want b", i, art.Backend)
		}
		onB = append(onB, art)
	}
	close(gate)
	<-done

	for _, art := range onB {
		res, err := p.Simulate(ctx, art)
		if err != nil {
			t.Fatal(err)
		}
		// The fake stamps its own name into the result.
		if res.Backend != "b" {
			t.Fatalf("artifact compiled by b but simulated by %s", res.Backend)
		}
	}
	if c, s := b.compiles.Load(), b.sims.Load(); c != 3 || s != c {
		t.Errorf("simulate did not follow compile: b compiled %d, simulated %d; want 3/3", c, s)
	}

	// An artifact from outside the pool is rejected.
	foreign, err := tilt.NewIdealTI().Compile(ctx, circ)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Simulate(ctx, foreign); err == nil || !strings.Contains(err.Error(), "not compiled by this pool") {
		t.Errorf("foreign artifact: err = %v", err)
	}
}

func TestPoolBreakerOpensOnEndpointFailures(t *testing.T) {
	ctx := context.Background()
	sick := &countingBackend{name: "sick", fail: &tilt.RemoteError{Status: 502, Message: "bad gateway"}}
	well := &countingBackend{name: "well"}
	reg := tilt.NewMetricsRegistry()
	p, err := tilt.Pool([]tilt.Backend{sick, well},
		tilt.PoolWithBreaker(2, time.Hour),
		tilt.PoolWithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	circ := tilt.GHZ(4).Circuit
	okCount := 0
	for i := 0; i < 8; i++ {
		if _, err := tilt.Execute(ctx, p, circ); err == nil {
			okCount++
		}
	}
	// Idle ties go to the first member, so sick takes every pick until the
	// second failure trips its breaker; after that every pick lands on the
	// healthy member.
	if got := sick.compiles.Load(); got != 2 {
		t.Errorf("sick member compiled %d times, want 2 (breaker at 2 failures)", got)
	}
	if okCount != 6 {
		t.Errorf("healthy completions = %d, want 6", okCount)
	}
	if h := p.Healthy(); h != 1 {
		t.Errorf("Healthy() = %d, want 1", h)
	}
}

func TestPoolDrainLeavesRotationImmediately(t *testing.T) {
	ctx := context.Background()
	draining := &countingBackend{name: "draining",
		fail: &tilt.RemoteError{Status: 503, Code: "shutting_down", Message: "drain"}}
	well := &countingBackend{name: "well"}
	p, err := tilt.Pool([]tilt.Backend{draining, well}, tilt.PoolWithBreaker(100, time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	circ := tilt.GHZ(4).Circuit
	for i := 0; i < 5; i++ {
		_, _ = tilt.Execute(ctx, p, circ)
	}
	// One probe is enough: shutting_down bypasses the failure threshold.
	if got := draining.compiles.Load(); got != 1 {
		t.Errorf("draining member compiled %d times, want 1", got)
	}
	if got := well.compiles.Load(); got != 4 {
		t.Errorf("healthy member compiled %d times, want 4", got)
	}
}

func TestPoolIgnoresCircuitLevelErrors(t *testing.T) {
	ctx := context.Background()
	// A 400-class RemoteError (bad circuit) and caller cancellation must
	// not poison the breaker.
	grumpy := &countingBackend{name: "grumpy", fail: &tilt.RemoteError{Status: 400, Message: "bad circuit"}}
	p, err := tilt.Pool([]tilt.Backend{grumpy}, tilt.PoolWithBreaker(1, time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := tilt.Execute(ctx, p, tilt.GHZ(3).Circuit); err == nil {
			t.Fatal("expected the member error to pass through")
		}
	}
	if h := p.Healthy(); h != 1 {
		t.Errorf("Healthy() after 4xx errors = %d, want 1 (breaker must stay closed)", h)
	}
	if got := grumpy.compiles.Load(); got != 3 {
		t.Errorf("member compiled %d times, want 3 (never taken out of rotation)", got)
	}
}

func TestPoolLeastLoadedPrefersIdleMember(t *testing.T) {
	// Pin load on member a by holding its in-flight count up with a
	// blocked Simulate, then check new compiles land on b.
	ctx := context.Background()
	gate := make(chan struct{})
	a := &blockingBackend{name: "a", gate: gate}
	b := &countingBackend{name: "b"}
	p, err := tilt.Pool([]tilt.Backend{a, b})
	if err != nil {
		t.Fatal(err)
	}
	circ := tilt.GHZ(4).Circuit

	// Occupy member a (ties break toward the first member, so the very
	// first pick lands there).
	art, err := p.Compile(ctx, circ)
	if err != nil {
		t.Fatal(err)
	}
	if art.Backend != "a" {
		t.Fatalf("first pick went to %s, want a", art.Backend)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = p.Simulate(ctx, art)
	}()
	// Wait until the simulate is actually in flight on a.
	deadline := time.Now().Add(30 * time.Second)
	for a.inSim.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	for i := 0; i < 4; i++ {
		art, err := p.Compile(ctx, circ)
		if err != nil {
			t.Fatal(err)
		}
		if art.Backend != "b" {
			t.Fatalf("pick %d went to loaded member %s, want b", i, art.Backend)
		}
	}
	close(gate)
	<-done
}

// blockingBackend blocks Simulate until its gate closes.
type blockingBackend struct {
	name  string
	gate  chan struct{}
	inSim atomic.Int64
}

func (f *blockingBackend) Name() string { return f.name }

func (f *blockingBackend) Compile(ctx context.Context, c *tilt.Circuit) (*tilt.Artifact, error) {
	return &tilt.Artifact{Backend: f.name, Circuit: c}, nil
}

func (f *blockingBackend) Simulate(ctx context.Context, a *tilt.Artifact) (*tilt.Result, error) {
	f.inSim.Add(1)
	defer f.inSim.Add(-1)
	select {
	case <-f.gate:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return &tilt.Result{Backend: f.name}, nil
}

func TestPoolNameAndString(t *testing.T) {
	a := &countingBackend{name: "a"}
	p, err := tilt.Pool([]tilt.Backend{a}, tilt.PoolWithName("fleet"))
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "fleet" {
		t.Errorf("Name() = %q", p.Name())
	}
	if got := fmt.Sprint(p); !strings.Contains(got, "a") {
		t.Errorf("String() = %q, want member names", got)
	}
	if members := p.Members(); len(members) != 1 || members[0] != tilt.Backend(a) {
		t.Errorf("Members() = %v", members)
	}
}

// TestPoolDoesNotMutateSharedCachedArtifacts: a cache-enabled member hands
// out one shared *Artifact per fingerprint. Pools must wrap — never tag —
// that artifact, or two pools sharing a member would overwrite each
// other's routing state (and race under concurrency).
func TestPoolDoesNotMutateSharedCachedArtifacts(t *testing.T) {
	ctx := context.Background()
	shared := tilt.NewTILT(tilt.WithDevice(0, 4), tilt.WithCompileCache(8))
	poolA, err := tilt.Pool([]tilt.Backend{shared})
	if err != nil {
		t.Fatal(err)
	}
	poolB, err := tilt.Pool([]tilt.Backend{shared})
	if err != nil {
		t.Fatal(err)
	}
	circ := tilt.GHZ(8).Circuit

	artA, err := poolA.Compile(ctx, circ)
	if err != nil {
		t.Fatal(err)
	}
	// Pool B compiles the identical circuit: a cache hit on the same
	// underlying artifact. This must not disturb pool A's routing.
	if _, err := poolB.Compile(ctx, circ); err != nil {
		t.Fatal(err)
	}
	if _, err := poolA.Simulate(ctx, artA); err != nil {
		t.Fatalf("pool A lost its artifact after pool B's cache hit: %v", err)
	}
	// And concurrent compile+simulate of the same cached circuit through
	// one pool is race-free (run with -race).
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := tilt.Execute(ctx, poolA, circ); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}

// TestPoolHalfOpenReopensOnSingleProbe: after the cooldown the member gets
// exactly one probe; a failed probe re-opens the breaker immediately
// instead of demanding failMax fresh consecutive failures.
func TestPoolHalfOpenReopensOnSingleProbe(t *testing.T) {
	ctx := context.Background()
	sick := &countingBackend{name: "sick", fail: &tilt.RemoteError{Status: 502, Message: "down"}}
	well := &countingBackend{name: "well"}
	// Least-loaded tie-breaks toward the first member, so sick is probed
	// whenever its breaker allows it.
	p, err := tilt.Pool([]tilt.Backend{sick, well}, tilt.PoolWithBreaker(2, 40*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	circ := tilt.GHZ(4).Circuit
	for i := 0; i < 4; i++ { // 2 failures trip the breaker, then 2 on well
		_, _ = tilt.Execute(ctx, p, circ)
	}
	if got := sick.compiles.Load(); got != 2 {
		t.Fatalf("sick compiles before cooldown = %d, want 2", got)
	}
	time.Sleep(60 * time.Millisecond) // past the cooldown: half-open
	for i := 0; i < 3; i++ {          // 1 probe fails and re-opens; 2 go to well
		_, _ = tilt.Execute(ctx, p, circ)
	}
	if got := sick.compiles.Load(); got != 3 {
		t.Errorf("sick compiles after one half-open window = %d, want 3 (single probe)", got)
	}
	if h := p.Healthy(); h != 1 {
		t.Errorf("Healthy() = %d, want 1 (breaker re-opened)", h)
	}
}
