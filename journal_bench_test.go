package tilt_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	tilt "repro"
	"repro/internal/jobs"
	"repro/internal/journal"
)

// journalBench is the committed BENCH_journal.json shape: ns/op, allocs/op
// and fsyncs/op of journaled submissions through jobs.Manager, measured by
// the same command on the parent commit and on the change, plus the
// parent÷change speedups.
type journalBench struct {
	Bench       string                 `json:"bench"`
	GeneratedBy string                 `json:"generated_by"`
	Host        string                 `json:"host"`
	Cases       map[string]string      `json:"cases"`
	Sides       map[string]journalSide `json:"sides"`
	Speedup     map[string]float64     `json:"speedup,omitempty"`
}

type journalSide struct {
	Commit  string                `json:"commit"`
	Command string                `json:"command"`
	Results map[string]journalRow `json:"results"`
}

type journalRow struct {
	NsPerOp     int64   `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	FsyncsPerOp float64 `json:"fsyncs_per_op"`
}

const (
	journalBenchFile = "BENCH_journal.json"
	journalEnv       = "LINQ_BENCH_JOURNAL"
	journalCommand   = "go test -run TestGenerateJournalBench -count=1 ."
	// journalBurst is how many submissions one burst op sends at once.
	journalBurst = 16
)

// journalCases names each measured case.
var journalCases = map[string]string{
	"sequential": "one Submit of a 16-qubit circuit to a jobs.Manager with a fsynced journal (TILT pool, 2 workers, " +
		"compile cache warm), then Wait until it is terminal: every record of one job on the critical path",
	"burst": "16 concurrent Submits of 16 distinct 16-qubit circuits to the same manager, then Wait for all 16",
}

// journalCircuits returns n distinct small circuits.
func journalCircuits(n int) []*tilt.Circuit {
	var out []*tilt.Circuit
	for k := 0; k < n; k++ {
		c := tilt.NewCircuit(16)
		c.ApplyRZ(float64(k+1)/64, 0)
		for q := 0; q+1 < 16; q++ {
			c.ApplyH(q)
			c.ApplyCNOT(q, q+1)
		}
		out = append(out, c)
	}
	return out
}

// journalKernel runs ops of width submissions each (waiting for all of
// them) against a fresh journaled manager per run, and reports the fsyncs
// per op as the "fsyncs/op" metric.
func journalKernel(width int) func(*testing.B) {
	circs := journalCircuits(width)
	return func(b *testing.B) {
		reg := tilt.NewMetricsRegistry()
		jnl, err := journal.Open(b.TempDir(), journal.WithMetrics(reg))
		if err != nil {
			b.Fatal(err)
		}
		mgr, err := jobs.New([]jobs.Pool{{Name: "TILT", Backend: tilt.NewTILT(), Workers: 2}}, jobs.WithJournal(jnl))
		if err != nil {
			b.Fatal(err)
		}
		defer func() {
			_ = mgr.Shutdown(context.Background())
			_ = jnl.Close()
		}()
		ctx := context.Background()
		op := func() {
			var wg sync.WaitGroup
			for _, c := range circs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					id, err := mgr.Submit(jobs.Request{Backend: "TILT", Circuit: c})
					if err == nil {
						var job jobs.Job
						if job, err = mgr.Wait(ctx, id); err == nil && job.State != jobs.StateDone {
							err = fmt.Errorf("job %s ended %s: %s", id, job.State, job.Error)
						}
					}
					if err != nil {
						b.Error(err)
					}
				}()
			}
			wg.Wait()
		}
		op() // warm the compile cache
		fsyncs := reg.Counter("linq_journal_fsyncs_total", "")
		before := fsyncs.Value()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			op()
		}
		b.StopTimer()
		b.ReportMetric(float64(fsyncs.Value()-before)/float64(b.N), "fsyncs/op")
	}
}

// TestGenerateJournalBench measures the journaled submission cases and
// writes this commit's side of BENCH_journal.json, keeping the other side.
// Gated behind LINQ_BENCH_JOURNAL=<side> because it measures wall-clock
// time on the disk under the temporary directory. To compare a change
// against its parent, run the same command on each commit, carrying this
// file and the file over:
//
//	LINQ_BENCH_JOURNAL=parent go test -run TestGenerateJournalBench -count=1 .   # on the parent
//	LINQ_BENCH_JOURNAL=change go test -run TestGenerateJournalBench -count=1 .   # on the change
func TestGenerateJournalBench(t *testing.T) {
	side := os.Getenv(journalEnv)
	if side == "" {
		t.Skipf("set %s=parent or %s=change to regenerate %s", journalEnv, journalEnv, journalBenchFile)
	}
	if !slices.Contains(kernelsSides, side) {
		t.Fatalf("%s=%q: want parent or change", journalEnv, side)
	}

	out := journalBench{}
	if raw, err := os.ReadFile(journalBenchFile); err == nil {
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("%s: %v", journalBenchFile, err)
		}
	}
	out.Bench = "journal"
	out.GeneratedBy = journalEnv + "=<parent|change> " + journalCommand
	out.Host = fmt.Sprintf("%s/%s, %d CPUs, %s", runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.Version())
	out.Cases = journalCases
	if out.Sides == nil {
		out.Sides = map[string]journalSide{}
	}

	commit, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		t.Logf("commit unknown: %v", err)
	}
	row := journalSide{
		Commit:  strings.TrimSpace(string(commit)),
		Command: journalEnv + "=" + side + " " + journalCommand,
		Results: map[string]journalRow{},
	}
	runs := map[string]func(*testing.B){
		"burst":      journalKernel(journalBurst),
		"sequential": journalKernel(1),
	}
	for _, name := range []string{"burst", "sequential"} {
		var reps []testing.BenchmarkResult
		for r := 0; r < kernelsReps; r++ {
			reps = append(reps, testing.Benchmark(runs[name]))
		}
		sort.Slice(reps, func(i, j int) bool { return reps[i].NsPerOp() < reps[j].NsPerOp() })
		med := reps[len(reps)/2]
		row.Results[name] = journalRow{
			NsPerOp:     med.NsPerOp(),
			AllocsPerOp: med.AllocsPerOp(),
			FsyncsPerOp: math.Round(100*med.Extra["fsyncs/op"]) / 100,
		}
		t.Logf("%s %-10s %10d ns/op %6d allocs/op %6.2f fsyncs/op", side, name, med.NsPerOp(), med.AllocsPerOp(), med.Extra["fsyncs/op"])
	}
	out.Sides[side] = row

	out.Speedup = nil
	if p, ok := out.Sides["parent"]; ok {
		if c, ok := out.Sides["change"]; ok {
			out.Speedup = map[string]float64{}
			for name := range journalCases {
				out.Speedup[name] = journalSpeedup(p.Results[name], c.Results[name])
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
	if err := os.WriteFile(journalBenchFile, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s side of %s", side, journalBenchFile)
}

func journalSpeedup(parent, change journalRow) float64 {
	return math.Round(100*float64(parent.NsPerOp)/float64(change.NsPerOp)) / 100
}

// TestJournalBenchArtifact keeps the committed BENCH_journal.json honest:
// both sides measured both cases with the same command, that command names
// a test that exists, the recorded speedups follow from the numbers, and
// they back the group-commit journal's claims.
func TestJournalBenchArtifact(t *testing.T) {
	raw, err := os.ReadFile(journalBenchFile)
	if err != nil {
		t.Fatalf("%s missing (regenerate with %s=<side>): %v", journalBenchFile, journalEnv, err)
	}
	var bench journalBench
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatalf("%s: %v", journalBenchFile, err)
	}
	if bench.Bench != "journal" {
		t.Errorf("bench = %q", bench.Bench)
	}
	if want := journalEnv + "=<parent|change> " + journalCommand; bench.GeneratedBy != want {
		t.Errorf("generated_by = %q, want %q", bench.GeneratedBy, want)
	}
	for _, side := range kernelsSides {
		s, ok := bench.Sides[side]
		if !ok {
			t.Errorf("missing side %q", side)
			continue
		}
		if want := journalEnv + "=" + side + " " + journalCommand; s.Command != want {
			t.Errorf("%s: command %q, want %q", side, s.Command, want)
		}
		if s.Commit == "" {
			t.Errorf("%s: no commit recorded", side)
		}
		for name := range journalCases {
			if r, ok := s.Results[name]; !ok || r.NsPerOp <= 0 || r.AllocsPerOp < 0 || r.FsyncsPerOp <= 0 {
				t.Errorf("%s: %s missing or implausible: %+v", side, name, r)
			}
		}
	}
	for name, desc := range journalCases {
		if bench.Cases[name] != desc {
			t.Errorf("case %s described as %q, want %q", name, bench.Cases[name], desc)
		}
		p, c := bench.Sides["parent"].Results[name], bench.Sides["change"].Results[name]
		if c.NsPerOp <= 0 {
			continue
		}
		if want := journalSpeedup(p, c); bench.Speedup[name] != want {
			t.Errorf("speedup[%s] = %v, want %v from the recorded ns/op", name, bench.Speedup[name], want)
		}
	}
	// The claims the file backs: the parent fsyncs every record (three per
	// job); the change fsyncs only the submission, once per sequential job
	// and shared within a burst, and is faster on both.
	parent, change := bench.Sides["parent"].Results, bench.Sides["change"].Results
	if p := parent["sequential"].FsyncsPerOp; p < 2.9 {
		t.Errorf("parent sequential fsyncs/op %v, want ≈ 3", p)
	}
	if c := change["sequential"].FsyncsPerOp; c > 1.1 {
		t.Errorf("change sequential fsyncs/op %v, want ≈ 1", c)
	}
	if c := change["burst"].FsyncsPerOp; c >= journalBurst {
		t.Errorf("change burst fsyncs/op %v, want fewer than the %d submissions", c, journalBurst)
	}
	for name := range journalCases {
		if s := bench.Speedup[name]; s < 1.2 {
			t.Errorf("%s speedup %v, want ≥ 1.2", name, s)
		}
	}
	checkGeneratorExists(t, journalCommand)
}
