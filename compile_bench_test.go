package tilt_test

import (
	"context"
	"crypto/sha256"
	"fmt"
	"hash"
	"testing"

	tilt "repro"
	"repro/internal/schedule"
	"repro/internal/swapins"
)

// BENCH_compile.json has BENCH_kernels.json's shape: ns/op of the two TILT
// compile passes, the sweep baseline and the whole cold compile, on the
// parent commit and on the change, each row with a digest of the output it
// computed.
const (
	compileBenchFile = "BENCH_compile.json"
	compileEnv       = "LINQ_BENCH_COMPILE"
	compileCommand   = "go test -run TestGenerateCompileBench -count=1 ."
)

// compileDescriptions names each measured operation's workload.
var compileDescriptions = map[string]string{
	"tape_qft":        "BenchmarkTapeQFT: tape scheduling (Algorithm 2) of the LinQ-routed native QFT-64, 64 ions, head 16",
	"sweep_qft":       "BenchmarkSweepQFT: the bouncing sweep baseline scheduler on the same routed QFT-64",
	"linq_insert_qft": "BenchmarkLinQInsertQFT: LinQ swap insertion (Algorithm 1) on native QFT-64, 64 ions, head 16, program-order placement",
	"compile_cold":    "BenchmarkCompileCold: 100 compiles of BV-64 on a cache-less TILT backend at head 16, the full decompose, place, insert-swaps and schedule pipeline",
}

// compileOp is one row's measured operation. It writes a fingerprint of
// its output to h unless h is nil, as it is while being measured.
type compileOp func(h hash.Hash) error

// compileSetups builds each row's operation, keyed as in
// compileDescriptions.
var compileSetups = map[string]func(testing.TB) compileOp{
	"tape_qft":  func(tb testing.TB) compileOp { return scheduleOp(tb, schedule.Tape) },
	"sweep_qft": func(tb testing.TB) compileOp { return scheduleOp(tb, schedule.Sweep) },
	"linq_insert_qft": func(tb testing.TB) compileOp {
		nat, m0, dev, err := routedQFT()
		if err != nil {
			tb.Fatal(err)
		}
		return func(h hash.Hash) error {
			r, err := (swapins.LinQ{}).Insert(context.Background(), nat, m0, dev, swapins.Options{})
			if err == nil && h != nil {
				fmt.Fprintln(h, r.Physical.Fingerprint(), r.SwapCount, r.OpposingSwaps, r.FinalMapping.LogicalToPhysical())
			}
			return err
		}
	},
	"compile_cold": func(testing.TB) compileOp {
		c := tilt.BenchmarkBV().Circuit
		be := tilt.NewTILT(tilt.WithDevice(0, 16))
		return func(h hash.Hash) error {
			for range 100 {
				art, err := be.Compile(context.Background(), c)
				if err != nil {
					return err
				}
				if h != nil {
					cr := art.Compile
					fmt.Fprintln(h, cr.Physical.Fingerprint(), cr.SwapCount, cr.OpposingSwaps)
					writeSchedule(h, cr.Schedule)
				}
			}
			return nil
		}
	},
}

// scheduleOp schedules the LinQ-routed QFT-64 with sched.
func scheduleOp(tb testing.TB, sched func(context.Context, *tilt.Circuit, tilt.Device) (*schedule.Schedule, error)) compileOp {
	nat, m0, dev, err := routedQFT()
	if err != nil {
		tb.Fatal(err)
	}
	r, err := (swapins.LinQ{}).Insert(context.Background(), nat, m0, dev, swapins.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	return func(h hash.Hash) error {
		s, err := sched(context.Background(), r.Physical, dev)
		if err == nil && h != nil {
			writeSchedule(h, s)
		}
		return err
	}
}

// writeSchedule writes every step's position and gates, then the totals.
func writeSchedule(h hash.Hash, s *schedule.Schedule) {
	for _, st := range s.Steps {
		fmt.Fprintln(h, st.Pos, st.Gates)
	}
	fmt.Fprintln(h, s.Moves, s.Dist)
}

// TestGenerateCompileBench measures the compile rows and writes this
// commit's side of BENCH_compile.json, keeping the other side; gated like
// TestGenerateKernelsBench:
//
//	LINQ_BENCH_COMPILE=parent go test -run TestGenerateCompileBench -count=1 .   # on the parent
//	LINQ_BENCH_COMPILE=change go test -run TestGenerateCompileBench -count=1 .   # on the change
func TestGenerateCompileBench(t *testing.T) {
	side := benchSide(t, compileEnv, compileBenchFile)
	setups := map[string]func(testing.TB) func(*testing.B){}
	digests := map[string]string{}
	for name, setup := range compileSetups {
		op := setup(t)
		h := sha256.New()
		if err := op(h); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		digests[name] = fmt.Sprintf("%x", h.Sum(nil))
		setups[name] = func(testing.TB) func(*testing.B) {
			return func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := op(nil); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
	}
	rows := measureKernels(t, side, setups)
	for name, d := range digests {
		r := rows[name]
		r.Digest = d
		rows[name] = r
	}
	writeBenchSide(t, compileBenchFile, "compile", compileEnv, compileCommand, side, compileDescriptions, rows)
}

// TestCompileBenchArtifact keeps the committed BENCH_compile.json honest:
// the generic artifact checks, both sides computing identical schedules,
// swaps and physical circuits on every row, and the claims the file backs —
// per-window gate counts kept incrementally make tape scheduling at least
// 1.5× faster, scoring swaps on only the terms they move makes swap
// insertion at least 1.25× faster, the cold compile gains at least 1.3×,
// and the sweep baseline, which lost its set cache, is no slower beyond
// noise.
func TestCompileBenchArtifact(t *testing.T) {
	bench := readBenchArtifact(t, compileBenchFile, "compile", compileEnv, compileCommand, compileDescriptions)
	for name := range compileDescriptions {
		p, c := bench.Sides["parent"].Results[name], bench.Sides["change"].Results[name]
		if p.Digest == "" || p.Digest != c.Digest {
			t.Errorf("%s: parent digest %q, change %q; want equal and set", name, p.Digest, c.Digest)
		}
	}
	for name, want := range map[string]float64{"tape_qft": 1.5, "linq_insert_qft": 1.25, "compile_cold": 1.3, "sweep_qft": 0.9} {
		if s := bench.Speedup[name]; s < want {
			t.Errorf("%s speedup %v, want ≥ %v", name, s, want)
		}
	}
}
