package tilt_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	tilt "repro"
	"repro/internal/jobs"
	"repro/internal/journal"
	"repro/internal/linqhttp"
	"repro/internal/workloads"
)

// intakeBench is the committed BENCH_intake.json shape: ns/op and
// allocs/op of one linqd submission of a wide circuit, served by the HTTP
// handler in process, measured by the same command on the parent commit
// and on the change, plus the parent÷change speedups.
type intakeBench struct {
	Bench       string                 `json:"bench"`
	GeneratedBy string                 `json:"generated_by"`
	Host        string                 `json:"host"`
	Cases       map[string]string      `json:"cases"`
	Sides       map[string]kernelsSide `json:"sides"`
	Speedup     map[string]float64     `json:"speedup,omitempty"`
}

const (
	intakeBenchFile = "BENCH_intake.json"
	intakeEnv       = "LINQ_BENCH_INTAKE"
	intakeCommand   = "go test -run TestGenerateIntakeBench -count=1 ."
	// intakePool is how many distinct bodies the miss case rotates
	// through: twice the daemon's intake cache, so every send misses.
	intakePool = 32
)

// intakeCases names each measured case.
var intakeCases = map[string]string{
	"hit": "POST /v1/jobs of the QFT-64 circuit body (~124 KB, 2080 gates) on the TILT pool, " +
		"the same body every op, through linqhttp's handler in process onto a jobs.Manager " +
		"with a journal (no fsync) whose backend holds every execution, so each op after the first is a dedup",
	"miss": "the same, rotating through 32 distinct QFT-64 bodies (each led by its own RZ angle), " +
		"more than the daemon's intake cache holds",
}

// intakeBodies returns n distinct submission bodies around QFT-64.
func intakeBodies(tb testing.TB, n int) [][]byte {
	qft := workloads.QFT().Circuit
	var bodies [][]byte
	for i := 0; i < n; i++ {
		c := tilt.NewCircuit(qft.NumQubits())
		c.ApplyRZ(float64(i+1)/64, 0)
		for _, g := range qft.Gates() {
			if err := c.Add(g); err != nil {
				tb.Fatal(err)
			}
		}
		b, err := json.Marshal(map[string]any{"backend": "TILT", "circuit": c})
		if err != nil {
			tb.Fatal(err)
		}
		bodies = append(bodies, b)
	}
	return bodies
}

// intakeKernel posts the bodies in rotation, each op one submission, to a
// fresh daemon stack per run.
func intakeKernel(bodies [][]byte) func(*testing.B) {
	return func(b *testing.B) {
		jnl, err := journal.Open(b.TempDir(), journal.WithoutSync())
		if err != nil {
			b.Fatal(err)
		}
		mgr, err := jobs.New([]jobs.Pool{{Name: "TILT", Backend: heldBackend{tilt.NewTILT()}, Workers: 1}}, jobs.WithJournal(jnl))
		if err != nil {
			b.Fatal(err)
		}
		defer func() {
			ctx, cancel := context.WithCancel(context.Background())
			cancel() // cancel every held execution at once
			_ = mgr.Shutdown(ctx)
			_ = jnl.Close()
		}()
		h := linqhttp.NewServer(mgr, tilt.NewMetricsRegistry()).Routes()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(bodies[i%len(bodies)])))
			if rec.Code != http.StatusAccepted {
				b.Fatalf("HTTP %d: %s", rec.Code, rec.Body)
			}
		}
		b.StopTimer()
	}
}

// TestGenerateIntakeBench measures the submission cases and writes this
// commit's side of BENCH_intake.json, keeping the other side. Gated behind
// LINQ_BENCH_INTAKE=<side> because it measures wall-clock time. To compare
// a change against its parent, run the same command on each commit,
// carrying this file and the file over:
//
//	LINQ_BENCH_INTAKE=parent go test -run TestGenerateIntakeBench -count=1 .   # on the parent
//	LINQ_BENCH_INTAKE=change go test -run TestGenerateIntakeBench -count=1 .   # on the change
func TestGenerateIntakeBench(t *testing.T) {
	side := os.Getenv(intakeEnv)
	if side == "" {
		t.Skipf("set %s=parent or %s=change to regenerate %s", intakeEnv, intakeEnv, intakeBenchFile)
	}
	if !slices.Contains(kernelsSides, side) {
		t.Fatalf("%s=%q: want parent or change", intakeEnv, side)
	}

	out := intakeBench{Sides: map[string]kernelsSide{}}
	if raw, err := os.ReadFile(intakeBenchFile); err == nil {
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("%s: %v", intakeBenchFile, err)
		}
	}
	out.Bench = "intake"
	out.GeneratedBy = intakeEnv + "=<parent|change> " + intakeCommand
	out.Host = fmt.Sprintf("%s/%s, %d CPUs, %s", runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.Version())
	out.Cases = intakeCases
	if out.Sides == nil {
		out.Sides = map[string]kernelsSide{}
	}

	commit, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		t.Logf("commit unknown: %v", err)
	}
	row := kernelsSide{
		Commit:  strings.TrimSpace(string(commit)),
		Command: intakeEnv + "=" + side + " " + intakeCommand,
		Results: map[string]kernelRow{},
	}
	bodies := intakeBodies(t, intakePool)
	runs := map[string]func(*testing.B){
		"hit":  intakeKernel(bodies[:1]),
		"miss": intakeKernel(bodies),
	}
	for _, name := range slices.Sorted(maps.Keys(runs)) {
		var reps []testing.BenchmarkResult
		for r := 0; r < kernelsReps; r++ {
			reps = append(reps, testing.Benchmark(runs[name]))
		}
		sort.Slice(reps, func(i, j int) bool { return reps[i].NsPerOp() < reps[j].NsPerOp() })
		med := reps[len(reps)/2]
		row.Results[name] = kernelRow{NsPerOp: med.NsPerOp(), AllocsPerOp: med.AllocsPerOp(), BytesPerOp: med.AllocedBytesPerOp()}
		t.Logf("%s %-4s %10d ns/op %6d allocs/op", side, name, med.NsPerOp(), med.AllocsPerOp())
	}
	out.Sides[side] = row

	out.Speedup = nil
	if p, ok := out.Sides["parent"]; ok {
		if c, ok := out.Sides["change"]; ok {
			out.Speedup = map[string]float64{}
			for name := range intakeCases {
				out.Speedup[name] = kernelSpeedup(p.Results[name], c.Results[name])
			}
		}
	}

	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false) // keep the <parent|change> placeholder readable
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(intakeBenchFile, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s side of %s", side, intakeBenchFile)
}

// TestIntakeBenchArtifact keeps the committed BENCH_intake.json honest:
// both sides measured both cases with the same command, that command names
// a test that exists, the recorded speedups follow from the numbers, and
// they back the intake cache's claims.
func TestIntakeBenchArtifact(t *testing.T) {
	raw, err := os.ReadFile(intakeBenchFile)
	if err != nil {
		t.Fatalf("%s missing (regenerate with %s=<side>): %v", intakeBenchFile, intakeEnv, err)
	}
	var bench intakeBench
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatalf("%s: %v", intakeBenchFile, err)
	}
	if bench.Bench != "intake" {
		t.Errorf("bench = %q", bench.Bench)
	}
	if want := intakeEnv + "=<parent|change> " + intakeCommand; bench.GeneratedBy != want {
		t.Errorf("generated_by = %q, want %q", bench.GeneratedBy, want)
	}
	for _, side := range kernelsSides {
		s, ok := bench.Sides[side]
		if !ok {
			t.Errorf("missing side %q", side)
			continue
		}
		if want := intakeEnv + "=" + side + " " + intakeCommand; s.Command != want {
			t.Errorf("%s: command %q, want %q", side, s.Command, want)
		}
		if s.Commit == "" {
			t.Errorf("%s: no commit recorded", side)
		}
		for name := range intakeCases {
			if r, ok := s.Results[name]; !ok || r.NsPerOp <= 0 || r.AllocsPerOp < 0 {
				t.Errorf("%s: %s missing or implausible: %+v", side, name, r)
			}
		}
	}
	for name, desc := range intakeCases {
		if bench.Cases[name] != desc {
			t.Errorf("case %s described as %q, want %q", name, bench.Cases[name], desc)
		}
		p, c := bench.Sides["parent"].Results[name], bench.Sides["change"].Results[name]
		if c.NsPerOp <= 0 {
			continue
		}
		if want := kernelSpeedup(p, c); bench.Speedup[name] != want {
			t.Errorf("speedup[%s] = %v, want %v from the recorded ns/op", name, bench.Speedup[name], want)
		}
	}
	// The claims the file backs: a repeated body is served at least 3×
	// faster, and a body the cache has not seen costs no more than 1/0.9
	// of the parent's submission.
	for name, want := range map[string]float64{"hit": 3, "miss": 0.9} {
		if s := bench.Speedup[name]; s < want {
			t.Errorf("%s speedup %v, want ≥ %v", name, s, want)
		}
	}
	checkGeneratorExists(t, intakeCommand)
}
