package tilt_test

import (
	"context"
	"reflect"
	"strconv"
	"strings"
	"testing"

	tilt "repro"
	"repro/runner"
)

// resultEqual compares two Results field by field, ignoring wall-clock pass
// timings and cache counters (the only fields allowed to differ between a
// cold and a cached run of the same circuit).
func resultEqual(a, b *tilt.Result) bool {
	ca, cb := *a, *b
	ca.Cache, cb.Cache = nil, nil
	if (ca.TILT == nil) != (cb.TILT == nil) {
		return false
	}
	if ca.TILT != nil {
		ta, tb := *ca.TILT, *cb.TILT
		ta.Passes, tb.Passes = nil, nil
		ta.TSwap, tb.TSwap = 0, 0
		ta.TMove, tb.TMove = 0, 0
		if !reflect.DeepEqual(ta, tb) {
			return false
		}
		ca.TILT, cb.TILT = nil, nil
	}
	return reflect.DeepEqual(ca, cb)
}

func TestDefaultBackendReportsPassTimings(t *testing.T) {
	bench := tilt.GHZ(16)
	be := tilt.NewTILT(tilt.WithDevice(16, 8))
	res, err := tilt.Execute(context.Background(), be, bench.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{tilt.PassDecompose, tilt.PassPlace, tilt.PassInsertSwaps, tilt.PassSchedule}
	if len(res.TILT.Passes) != len(want) {
		t.Fatalf("got %d pass records, want %d", len(res.TILT.Passes), len(want))
	}
	for i, p := range res.TILT.Passes {
		if p.Pass != want[i] {
			t.Errorf("pass %d = %q, want %q", i, p.Pass, want[i])
		}
	}
	// The deprecated Table III aliases must agree with the records.
	if res.TILT.TSwap != res.TILT.Passes[2].Wall || res.TILT.TMove != res.TILT.Passes[3].Wall {
		t.Error("TSwap/TMove do not alias the insert-swaps/schedule pass timings")
	}
}

// TestCompilePassSpansMatchPassRecords: under a traced context, Compile
// emits one "pass <name>" child of the compile span per Result.TILT.Passes
// record, in record order, each carrying the record's gate counts.
func TestCompilePassSpansMatchPassRecords(t *testing.T) {
	c := tilt.NewCircuit(12)
	c.ApplyRZ(0.3, 0)
	c.ApplyRZ(0.4, 0) // merged by the optimize pass
	for q := 0; q+1 < 12; q++ {
		c.ApplyCNOT(q, q+1)
	}
	tracer := tilt.NewTracer("test")
	root := tracer.StartRoot("test")
	ctx := tilt.ContextWithSpan(context.Background(), root)
	res, err := tilt.Execute(ctx, tilt.NewTILT(tilt.WithDevice(12, 4), tilt.WithOptimize()), c)
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	spans, ok := tracer.Trace(root.Context().TraceID)
	if !ok {
		t.Fatal("trace not stored")
	}
	var compileID string
	for _, s := range spans {
		if s.Name == "compile" {
			compileID = s.SpanID
		}
	}
	if compileID == "" {
		t.Fatal("no compile span")
	}
	var passSpans []tilt.SpanData
	for _, s := range spans {
		if strings.HasPrefix(s.Name, "pass ") {
			if s.ParentID != compileID {
				t.Errorf("span %q parent = %q, want the compile span %q", s.Name, s.ParentID, compileID)
			}
			passSpans = append(passSpans, s)
		}
	}
	recs := res.TILT.Passes
	if len(recs) != 5 || len(passSpans) != len(recs) {
		t.Fatalf("%d pass spans for %d pass records, want 5 of each", len(passSpans), len(recs))
	}
	for i, rec := range recs {
		s := passSpans[i]
		if s.Name != "pass "+rec.Pass {
			t.Errorf("span %d = %q, want %q", i, s.Name, "pass "+rec.Pass)
		}
		if s.Attrs["gates_before"] != strconv.Itoa(rec.GatesBefore) || s.Attrs["gates_after"] != strconv.Itoa(rec.GatesAfter) {
			t.Errorf("span %q gates %s→%s, record %d→%d", s.Name,
				s.Attrs["gates_before"], s.Attrs["gates_after"], rec.GatesBefore, rec.GatesAfter)
		}
		if s.Error != "" {
			t.Errorf("span %q error %q", s.Name, s.Error)
		}
	}
	if opt := recs[1]; opt.Pass != tilt.PassOptimize || opt.GateDelta() >= 0 {
		t.Errorf("pass 1 = %q with delta %d, want optimize removing gates", opt.Pass, opt.GateDelta())
	}
}

// TestOpposingRatioZeroSafe: a compile that inserts no swaps reports a zero
// opposing-swap ratio rather than 0/0.
func TestOpposingRatioZeroSafe(t *testing.T) {
	res, err := tilt.Execute(context.Background(), tilt.NewTILT(tilt.WithDevice(8, 8)), tilt.GHZ(8).Circuit)
	if err != nil {
		t.Fatal(err)
	}
	if ts := res.TILT; ts.SwapCount != 0 || ts.OpposingRatio() != 0 {
		t.Errorf("GHZ under full head needs no swaps: %d, ratio %g", ts.SwapCount, ts.OpposingRatio())
	}
}

func TestCompileCacheHitsAndBitIdenticalResults(t *testing.T) {
	ctx := context.Background()
	bench := tilt.GHZ(24)
	be := tilt.NewTILT(tilt.WithDevice(24, 8), tilt.WithCompileCache(4))

	a1, err := be.Compile(ctx, bench.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := be.Simulate(ctx, a1)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cache == nil || r1.Cache.Hits != 0 || r1.Cache.Misses != 1 {
		t.Fatalf("after cold compile: cache = %+v, want 0 hits / 1 miss", r1.Cache)
	}

	// A gate-identical clone must hit the cache and return the same artifact.
	a2, err := be.Compile(ctx, bench.Circuit.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if a2 != a1 {
		t.Error("cache hit returned a different artifact")
	}
	r2, err := be.Simulate(ctx, a2)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Cache.Hits != 1 || r2.Cache.Entries != 1 {
		t.Errorf("after cached compile: cache = %+v, want 1 hit / 1 entry", r2.Cache)
	}
	if !resultEqual(r1, r2) {
		t.Error("cached Result differs from cold Result")
	}

	// A different circuit must miss.
	a3, err := be.Compile(ctx, tilt.GHZ(23).Circuit)
	if err != nil {
		t.Fatal(err)
	}
	r3, err := be.Simulate(ctx, a3)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Cache.Hits != 1 || r3.Cache.Misses != 2 || r3.Cache.Entries != 2 {
		t.Errorf("after distinct circuit: cache = %+v, want 1 hit / 2 misses / 2 entries", r3.Cache)
	}
}

func TestCompileCacheNotPoisonedByCallerMutation(t *testing.T) {
	// The cached artifact must not alias the caller's mutable circuit.
	ctx := context.Background()
	be := tilt.NewTILT(tilt.WithDevice(8, 4), tilt.WithCompileCache(4))
	c := tilt.GHZ(8).Circuit
	gates := c.Len()
	if _, err := be.Compile(ctx, c); err != nil {
		t.Fatal(err)
	}
	c.ApplyX(0) // mutate after compiling
	hit, err := be.Compile(ctx, tilt.GHZ(8).Circuit)
	if err != nil {
		t.Fatal(err)
	}
	if hit.Circuit.Len() != gates {
		t.Errorf("cached Artifact.Circuit has %d gates, want %d (caller mutation leaked in)", hit.Circuit.Len(), gates)
	}
	if hit.Compile.Input.Len() != gates {
		t.Errorf("cached Artifact.Compile.Input has %d gates, want %d (caller mutation leaked in)", hit.Compile.Input.Len(), gates)
	}
}

// TestCachedResultsDoNotSharePassRecords: every Result owns its pass
// records, so editing one Result's cannot reach a later Result of the same
// artifact or of a compile-cache hit.
func TestCachedResultsDoNotSharePassRecords(t *testing.T) {
	ctx := context.Background()
	be := tilt.NewTILT(tilt.WithDevice(8, 4), tilt.WithCompileCache(4))
	a, err := be.Compile(ctx, tilt.GHZ(8).Circuit)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := be.Simulate(ctx, a)
	if err != nil {
		t.Fatal(err)
	}
	r1.TILT.Passes[0].Pass = "mutated"
	r2, err := be.Simulate(ctx, a)
	if err != nil {
		t.Fatal(err)
	}
	r3, err := tilt.Execute(ctx, be, tilt.GHZ(8).Circuit)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Cache.Hits != 1 {
		t.Fatalf("cache = %+v, want the second compile to hit", r3.Cache)
	}
	for i, r := range []*tilt.Result{r2, r3} {
		if got := r.TILT.Passes[0].Pass; got != tilt.PassDecompose {
			t.Errorf("result %d: first pass record %q, want %q (an earlier Result's edit leaked in)", i+2, got, tilt.PassDecompose)
		}
	}
}

func TestCompileCacheMatchesUncachedResult(t *testing.T) {
	ctx := context.Background()
	bench := tilt.GHZ(24)
	cold, err := tilt.Execute(ctx, tilt.NewTILT(tilt.WithDevice(24, 8)), bench.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	cached := tilt.NewTILT(tilt.WithDevice(24, 8), tilt.WithCompileCache(4))
	var last *tilt.Result
	for i := 0; i < 3; i++ {
		last, err = tilt.Execute(ctx, cached, bench.Circuit)
		if err != nil {
			t.Fatal(err)
		}
	}
	if !resultEqual(cold, last) {
		t.Error("cached backend Result differs from uncached backend Result")
	}
	if last.Cache.Hits != 2 {
		t.Errorf("hits = %d, want 2", last.Cache.Hits)
	}
}

func TestCompileCacheSharedAcrossRunnerSweep(t *testing.T) {
	// A sweep that revisits the same circuit×config must compile once.
	bench := tilt.GHZ(24)
	be := tilt.NewTILT(tilt.WithDevice(24, 8), tilt.WithCompileCache(2))
	var jobs []runner.Job
	for i := 0; i < 8; i++ {
		jobs = append(jobs, runner.Job{Name: "sweep", Backend: be, Circuit: bench.Circuit})
	}
	results := runner.Run(context.Background(), jobs, runner.WithWorkers(4))
	for _, jr := range results {
		if jr.Err != nil {
			t.Fatal(jr.Err)
		}
		if jr.Result.Cache == nil {
			t.Fatal("no cache stats on swept Result")
		}
	}
	for _, jr := range results[1:] {
		if !resultEqual(results[0].Result, jr.Result) {
			t.Error("swept Results diverge")
			break
		}
	}
	// Per-job snapshots race with other jobs' compiles, so assert on the
	// settled counters after the batch: 8 sweep lookups plus this one, with
	// at most the 4 concurrent first compiles missing.
	res, err := tilt.Execute(context.Background(), be, bench.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	if total := res.Cache.Hits + res.Cache.Misses; total != 9 {
		t.Errorf("hits+misses = %d, want 9", total)
	}
	if res.Cache.Misses < 1 || res.Cache.Misses > 4 {
		t.Errorf("misses = %d, want within [1,4] (bounded by the worker count)", res.Cache.Misses)
	}
}
