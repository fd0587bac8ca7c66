package tilt

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// mcBits compares two MCStats bit for bit (NaN-safe, unlike ==).
func mcBits(a, b MCStats) bool {
	eq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return a.Shots == b.Shots && a.Seed == b.Seed && a.HasStateFidelity == b.HasStateFidelity &&
		eq(a.CleanProbability, b.CleanProbability) && eq(a.CleanStderr, b.CleanStderr) &&
		eq(a.StateFidelity, b.StateFidelity) && eq(a.StateFidelityStderr, b.StateFidelityStderr)
}

// TestCachedArtifactReusesMCStats: a compile-cache hit returns the same
// artifact, and simulating it again serves the cached estimates without
// running a single Monte-Carlo shot.
func TestCachedArtifactReusesMCStats(t *testing.T) {
	ctx := context.Background()
	reg := NewMetricsRegistry()
	be := NewTILT(WithDevice(8, 4), WithShots(300), WithSeed(5), WithCompileCache(4), WithMetrics(reg))
	c := GHZ(8).Circuit
	art, err := be.Compile(ctx, c)
	if err != nil {
		t.Fatal(err)
	}
	first, err := be.Simulate(ctx, art)
	if err != nil {
		t.Fatal(err)
	}
	shots := be.cfg.mx.mcShots.Value()
	if shots != 2*300 {
		t.Fatalf("first Simulate ran %d shots, want 600 (both estimators)", shots)
	}

	hit, err := be.Compile(ctx, c)
	if err != nil {
		t.Fatal(err)
	}
	if hit != art {
		t.Fatal("second Compile missed the compile cache")
	}
	second, err := be.Simulate(ctx, hit)
	if err != nil {
		t.Fatal(err)
	}
	if !mcBits(*first.MC, *second.MC) {
		t.Errorf("cached MCStats differ: %+v vs %+v", *first.MC, *second.MC)
	}
	if got := be.cfg.mx.mcShots.Value(); got != shots {
		t.Errorf("second Simulate on a cached artifact ran %d more shots, want 0", got-shots)
	}
}

// cancelAfterShots is a context that reports cancellation once the
// backend's Monte-Carlo shot counter reaches n: with one MC worker and n
// equal to the shot count, the clean-probability batch completes and the
// state-fidelity batch is the one cancelled.
type cancelAfterShots struct {
	context.Context
	shots func() int64
	n     int64
}

func (c cancelAfterShots) Err() error {
	if c.shots() >= c.n {
		return context.Canceled
	}
	return nil
}

// TestCancelledRunMCIsNotCached: a runMC cut short by its context — before
// the first shot, or between the two estimators — caches nothing, and the
// next call computes the same bits as an artifact that was never cancelled.
func TestCancelledRunMCIsNotCached(t *testing.T) {
	const shots = 300
	ctx := context.Background()
	opts := []Option{WithDevice(8, 4), WithShots(shots), WithSeed(9), WithMCWorkers(1)}
	c := GHZ(8).Circuit

	ref, err := NewTILT(opts...).Compile(ctx, c)
	if err != nil {
		t.Fatal(err)
	}
	want, err := runMC(ctx, ref)
	if err != nil {
		t.Fatal(err)
	}

	reg := NewMetricsRegistry()
	be := NewTILT(append(opts, WithMetrics(reg))...)
	art, err := be.Compile(ctx, c)
	if err != nil {
		t.Fatal(err)
	}
	pre, cancel := context.WithCancel(ctx)
	cancel()
	mid := cancelAfterShots{Context: ctx, shots: be.cfg.mx.mcShots.Value, n: shots}
	for name, cctx := range map[string]context.Context{"before the first shot": pre, "between estimators": mid} {
		if _, err := runMC(cctx, art); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: runMC err = %v, want context.Canceled", name, err)
		}
		if art.mcStats != nil {
			t.Fatalf("%s: a cancelled runMC cached %+v", name, *art.mcStats)
		}
	}
	if n := be.cfg.mx.mcShots.Value(); n != shots {
		t.Fatalf("cancelled runs completed %d shots, want %d (the clean batch only)", n, shots)
	}
	got, err := runMC(ctx, art)
	if err != nil {
		t.Fatal(err)
	}
	if !mcBits(*got, *want) {
		t.Errorf("runMC after cancellation = %+v, want %+v", *got, *want)
	}
}

// errAfter is a context whose Err reports cancellation from its n-th call
// on, counting every call: it cancels a Monte-Carlo run at a chosen
// context check.
type errAfter struct {
	context.Context
	calls atomic.Int64
	n     int64
}

func (c *errAfter) Err() error {
	if c.calls.Add(1) >= c.n {
		return context.Canceled
	}
	return nil
}

// TestRunMCCancelledMidPhaseIsNotCached: a runMC cancelled at any context
// check — in a clean shard, the ideal pass, the error draws or a replay —
// returns ctx.Err(), caches nothing, and leaves no pool goroutine behind;
// the next call computes the uncancelled bits.
func TestRunMCCancelledMidPhaseIsNotCached(t *testing.T) {
	ctx := context.Background()
	c := GHZ(8).Circuit
	for _, workers := range []int{1, 2} {
		be := NewTILT(WithDevice(8, 4), WithShots(300), WithSeed(9), WithMCWorkers(workers))
		ref, err := be.Compile(ctx, c)
		if err != nil {
			t.Fatal(err)
		}
		count := &errAfter{Context: ctx, n: math.MaxInt64}
		want, err := runMC(count, ref)
		if err != nil {
			t.Fatal(err)
		}
		checks := count.calls.Load()

		art, err := NewTILT(WithDevice(8, 4), WithShots(300), WithSeed(9), WithMCWorkers(workers)).Compile(ctx, c)
		if err != nil {
			t.Fatal(err)
		}
		base := runtime.NumGoroutine()
		for k := int64(1); k <= checks; k++ {
			if _, err := runMC(&errAfter{Context: ctx, n: k}, art); !errors.Is(err, context.Canceled) {
				t.Fatalf("workers=%d, cancelled at check %d of %d: err = %v, want context.Canceled", workers, k, checks, err)
			}
			if art.mcStats != nil {
				t.Fatalf("workers=%d, cancelled at check %d: cached %+v", workers, k, *art.mcStats)
			}
			n := runtime.NumGoroutine()
			for deadline := time.Now().Add(time.Second); n > base && time.Now().Before(deadline); n = runtime.NumGoroutine() {
				time.Sleep(time.Millisecond)
			}
			if n > base {
				t.Fatalf("workers=%d, cancelled at check %d: %d goroutines, baseline %d", workers, k, n, base)
			}
		}
		got, err := runMC(ctx, art)
		if err != nil {
			t.Fatal(err)
		}
		if !mcBits(*got, *want) {
			t.Errorf("workers=%d: runMC after cancellations = %+v, want %+v", workers, *got, *want)
		}
	}
}
