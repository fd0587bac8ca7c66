package tilt_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"maps"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	tilt "repro"
	"repro/internal/core"
	"repro/internal/decompose"
	"repro/internal/mapping"
	"repro/internal/mc"
	"repro/internal/qsim"
	"repro/internal/schedule"
	"repro/internal/swapins"
	"repro/internal/workloads"
)

// kernelsBench is the committed BENCH_kernels.json shape: ns/op and
// allocs/op of the Monte-Carlo and compiler kernels, measured by the same
// command on the parent commit and on the change, plus the parent÷change
// speedups.
type kernelsBench struct {
	Bench       string                 `json:"bench"`
	GeneratedBy string                 `json:"generated_by"`
	Host        string                 `json:"host"`
	Kernels     map[string]string      `json:"kernels"`
	Sides       map[string]kernelsSide `json:"sides"`
	Speedup     map[string]float64     `json:"speedup,omitempty"`
}

type kernelsSide struct {
	Commit  string               `json:"commit"`
	Command string               `json:"command"`
	Results map[string]kernelRow `json:"results"`
}

type kernelRow struct {
	NsPerOp     int64 `json:"ns_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
	// Digest, when set, fingerprints the results the measured operation
	// computed, so a file can show both sides computed the same thing.
	Digest string `json:"digest,omitempty"`
}

const (
	kernelsBenchFile = "BENCH_kernels.json"
	kernelsEnv       = "LINQ_BENCH_KERNELS"
	kernelsCommand   = "go test -run TestGenerateKernelsBench -count=1 ."
	// kernelsReps is how many testing.Benchmark runs each kernel gets; the
	// median is recorded.
	kernelsReps = 5
)

// kernelsSides are the two commits a BENCH_kernels.json compares.
var kernelsSides = []string{"parent", "change"}

// kernelDescriptions names each measured kernel's workload.
var kernelDescriptions = map[string]string{
	"mc_serial": "BenchmarkMCSerial: StateFidelity on QFT-10 (10 ions, head 4), 2048 shots, seed 7, one worker",
	"mc_crosscheck_mix": "the mc-crosscheck job mix: QFT-8 with a seeded RY prep, random 10-qubit 20-gate, " +
		"QAOA-10 depth 1, each compiled on TILT at head 8; one op builds the engine and runs " +
		"CleanProbability and StateFidelity at 256 shots on one worker for all three",
	"linq_insert_qft": "BenchmarkLinQInsertQFT: LinQ swap insertion (Algorithm 1) on native QFT-64, 64 ions, head 16, program-order placement",
	"tape_qft":        "BenchmarkTapeQFT: tape scheduling (Algorithm 2) of the LinQ-routed native QFT-64, 64 ions, head 16",
	"compile_cold":    "BenchmarkCompileCold: 100 compiles of BV-64 on a cache-less TILT backend at head 16, the full decompose, place, insert-swaps and schedule pipeline",
	"qsim_run_qft16":  "BenchmarkRunQFT16: a fresh 16-qubit statevector running the logical QFT-16 circuit (16 H and 120 CP gates)",
}

// kernelSetups builds each kernel's benchmark function, keyed as in
// kernelDescriptions.
var kernelSetups = map[string]func(testing.TB) func(*testing.B){
	"mc_serial":         mcSerialKernel,
	"mc_crosscheck_mix": mcCrosscheckKernel,
	"linq_insert_qft":   linqInsertQFTKernel,
	"tape_qft":          tapeQFTKernel,
	"compile_cold":      compileColdKernel,
	"qsim_run_qft16":    qsimRunQFT16Kernel,
}

// mcSerialKernel is BenchmarkMCSerial's workload (internal/mc/bench_test.go).
func mcSerialKernel(tb testing.TB) func(b *testing.B) {
	ctx := context.Background()
	cfg := core.Config{
		Device:    tilt.Device{NumIons: 10, HeadSize: 4},
		Placement: mapping.ProgramOrderPlacement,
		Inserter:  swapins.LinQ{},
	}
	cr, err := core.CompileWith(ctx, workloads.QFTN(10).Circuit, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	eng, err := mc.NewEngine(cr.Physical, cr.Schedule, cfg.Device, tilt.DefaultNoise(), mc.WithWorkers(1))
	if err != nil {
		tb.Fatal(err)
	}
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := eng.StateFidelity(ctx, 2048, 7); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// mcCrosscheckKernel is the per-job Monte-Carlo work of the mc-crosscheck
// benchmark workload, on one input of each of its three kinds.
func mcCrosscheckKernel(tb testing.TB) func(b *testing.B) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(1))
	qft := tilt.NewCircuit(8)
	for q := 0; q < 8; q++ {
		qft.ApplyRY(rng.Float64()*math.Pi, q)
	}
	for _, g := range workloads.QFTN(8).Circuit.Gates() {
		if err := qft.Add(g); err != nil {
			tb.Fatal(err)
		}
	}
	type input struct {
		art *tilt.Artifact
		dev tilt.Device
	}
	var inputs []input
	for _, c := range []*tilt.Circuit{qft, workloads.Random(10, 20, rng.Int63()).Circuit, workloads.QAOAN(10, 1, rng.Int63()).Circuit} {
		dev := tilt.Device{NumIons: c.NumQubits(), HeadSize: 8}
		art, err := tilt.NewTILT(tilt.WithDevice(dev.NumIons, dev.HeadSize)).Compile(ctx, c)
		if err != nil {
			tb.Fatal(err)
		}
		inputs = append(inputs, input{art, dev})
	}
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, in := range inputs {
				eng, err := mc.NewEngine(in.art.Compile.Physical, in.art.Compile.Schedule, in.dev, tilt.DefaultNoise(), mc.WithWorkers(1))
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := eng.CleanProbability(ctx, 256, 1); err != nil {
					b.Fatal(err)
				}
				if _, _, err := eng.StateFidelity(ctx, 256, 1); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// routedQFT is the input of the compiler kernels: QFT-64 lowered to the
// native gate set and placed in program order on 64 ions under a 16-ion
// head — the paper's heaviest Table II workload.
func routedQFT() (*tilt.Circuit, *mapping.Mapping, tilt.Device, error) {
	nat := decompose.ToNative(workloads.QFT().Circuit)
	dev := tilt.Device{NumIons: 64, HeadSize: 16}
	m0, err := mapping.Initial(nat, dev.NumIons, mapping.ProgramOrderPlacement)
	return nat, m0, dev, err
}

// linqInsertQFTKernel is BenchmarkLinQInsertQFT (internal/swapins).
func linqInsertQFTKernel(tb testing.TB) func(b *testing.B) {
	nat, m0, dev, err := routedQFT()
	if err != nil {
		tb.Fatal(err)
	}
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := (swapins.LinQ{}).Insert(context.Background(), nat, m0, dev, swapins.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// tapeQFTKernel is BenchmarkTapeQFT (internal/schedule).
func tapeQFTKernel(tb testing.TB) func(b *testing.B) {
	nat, m0, dev, err := routedQFT()
	if err != nil {
		tb.Fatal(err)
	}
	r, err := (swapins.LinQ{}).Insert(context.Background(), nat, m0, dev, swapins.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := schedule.Tape(context.Background(), r.Physical, dev); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// compileColdKernel is BenchmarkCompileCold (bench_test.go).
func compileColdKernel(testing.TB) func(b *testing.B) {
	c := tilt.BenchmarkBV().Circuit
	be := tilt.NewTILT(tilt.WithDevice(0, 16))
	return func(b *testing.B) {
		b.ReportAllocs()
		compileSweep(b, be, c, 100)
	}
}

// qsimRunQFT16Kernel is BenchmarkRunQFT16 (internal/qsim).
func qsimRunQFT16Kernel(testing.TB) func(b *testing.B) {
	c := workloads.QFTN(16).Circuit
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			qsim.NewState(16).Run(c)
		}
	}
}

// kernelSpeedup is parent ÷ change ns/op, rounded to two decimals.
func kernelSpeedup(parent, change kernelRow) float64 {
	return math.Round(100*float64(parent.NsPerOp)/float64(change.NsPerOp)) / 100
}

// TestGenerateKernelsBench measures the kernels and writes this
// commit's side of BENCH_kernels.json, keeping the other side. Gated behind
// LINQ_BENCH_KERNELS=<side> because it measures wall-clock time —
// meaningless under -race or a loaded CI box. To compare a change against
// its parent, run the same command on each commit, carrying the file over:
//
//	LINQ_BENCH_KERNELS=parent go test -run TestGenerateKernelsBench -count=1 .   # on the parent
//	LINQ_BENCH_KERNELS=change go test -run TestGenerateKernelsBench -count=1 .   # on the change
func TestGenerateKernelsBench(t *testing.T) {
	side := benchSide(t, kernelsEnv, kernelsBenchFile)
	writeBenchSide(t, kernelsBenchFile, "kernels", kernelsEnv, kernelsCommand, side,
		kernelDescriptions, measureKernels(t, side, kernelSetups))
}

// benchSide reads which side a generator run measures from env, skipping
// the test when it is unset.
func benchSide(t *testing.T, env, file string) string {
	t.Helper()
	side := os.Getenv(env)
	if side == "" {
		t.Skipf("set %s=parent or %s=change to regenerate %s", env, env, file)
	}
	if !slices.Contains(kernelsSides, side) {
		t.Fatalf("%s=%q: want parent or change", env, side)
	}
	return side
}

// measureKernels runs each kernel kernelsReps times and returns the median
// runs' rows.
func measureKernels(t *testing.T, side string, setups map[string]func(testing.TB) func(*testing.B)) map[string]kernelRow {
	t.Helper()
	rows := map[string]kernelRow{}
	// A fixed order keeps each kernel's neighbours, and so the heap it
	// starts from, the same on both sides.
	for _, name := range slices.Sorted(maps.Keys(setups)) {
		run := setups[name](t)
		var reps []testing.BenchmarkResult
		for r := 0; r < kernelsReps; r++ {
			reps = append(reps, testing.Benchmark(run))
		}
		sort.Slice(reps, func(i, j int) bool { return reps[i].NsPerOp() < reps[j].NsPerOp() })
		med := reps[len(reps)/2]
		rows[name] = kernelRow{NsPerOp: med.NsPerOp(), AllocsPerOp: med.AllocsPerOp(), BytesPerOp: med.AllocedBytesPerOp()}
		t.Logf("%s %-18s %12d ns/op %6d allocs/op", side, name, med.NsPerOp(), med.AllocsPerOp())
	}
	return rows
}

// writeBenchSide records rows as this commit's side of a kernel bench
// artifact, keeping the other side, and recomputes the speedups.
func writeBenchSide(t *testing.T, file, bench, env, command, side string, desc map[string]string, rows map[string]kernelRow) {
	t.Helper()
	out := kernelsBench{Sides: map[string]kernelsSide{}}
	if raw, err := os.ReadFile(file); err == nil {
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("%s: %v", file, err)
		}
	}
	out.Bench = bench
	out.GeneratedBy = env + "=<parent|change> " + command
	out.Host = fmt.Sprintf("%s/%s, %d CPUs, %s", runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.Version())
	out.Kernels = desc
	if out.Sides == nil {
		out.Sides = map[string]kernelsSide{}
	}

	commit, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		t.Logf("commit unknown: %v", err)
	}
	out.Sides[side] = kernelsSide{
		Commit:  strings.TrimSpace(string(commit)),
		Command: env + "=" + side + " " + command,
		Results: rows,
	}

	out.Speedup = nil
	if p, ok := out.Sides["parent"]; ok {
		if c, ok := out.Sides["change"]; ok {
			out.Speedup = map[string]float64{}
			for name := range desc {
				// A side recorded before a kernel existed has no row for it.
				if pr, cr := p.Results[name], c.Results[name]; pr.NsPerOp > 0 && cr.NsPerOp > 0 {
					out.Speedup[name] = kernelSpeedup(pr, cr)
				}
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
	if err := os.WriteFile(file, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s side of %s", side, file)
}

// TestKernelsBenchArtifact keeps the committed BENCH_kernels.json honest:
// both sides measured every kernel with the same command, that command
// names a test that exists, and the recorded speedups follow from the
// numbers.
func TestKernelsBenchArtifact(t *testing.T) {
	bench := readBenchArtifact(t, kernelsBenchFile, "kernels", kernelsEnv, kernelsCommand, kernelDescriptions)
	// The claims the file backs: the strided gate kernels and the phased
	// shot pool make the single-worker StateFidelity kernel at least 1.6×
	// and the mc-crosscheck job mix at least 1.3× faster, and tape
	// scheduling stays under 1000 allocations per schedule.
	for name, want := range map[string]float64{"mc_serial": 1.6, "mc_crosscheck_mix": 1.3} {
		if s := bench.Speedup[name]; s < want {
			t.Errorf("%s speedup %v, want ≥ %v", name, s, want)
		}
	}
	if a := bench.Sides["change"].Results["tape_qft"].AllocsPerOp; a >= 1000 {
		t.Errorf("tape_qft allocs/op %d, want < 1000", a)
	}
}

// readBenchArtifact loads a committed kernel bench artifact and checks
// what every such file must hold: both sides measured every described
// kernel with the same command, that command names a test that exists,
// and the recorded speedups follow from the numbers.
func readBenchArtifact(t *testing.T, file, name, env, command string, desc map[string]string) kernelsBench {
	t.Helper()
	raw, err := os.ReadFile(file)
	if err != nil {
		t.Fatalf("%s missing (regenerate with %s=<side>): %v", file, env, err)
	}
	var bench kernelsBench
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatalf("%s: %v", file, err)
	}
	if bench.Bench != name {
		t.Errorf("bench = %q", bench.Bench)
	}
	if want := env + "=<parent|change> " + command; bench.GeneratedBy != want {
		t.Errorf("generated_by = %q, want %q", bench.GeneratedBy, want)
	}
	for _, side := range kernelsSides {
		s, ok := bench.Sides[side]
		if !ok {
			t.Errorf("missing side %q", side)
			continue
		}
		if want := env + "=" + side + " " + command; s.Command != want {
			t.Errorf("%s: command %q, want %q", side, s.Command, want)
		}
		if s.Commit == "" {
			t.Errorf("%s: no commit recorded", side)
		}
		for name := range desc {
			r, ok := s.Results[name]
			if !ok || r.NsPerOp <= 0 || r.AllocsPerOp < 0 {
				t.Errorf("%s: %s missing or implausible: %+v", side, name, r)
			}
		}
	}
	for name, d := range desc {
		if bench.Kernels[name] != d {
			t.Errorf("kernel %s described as %q, want %q", name, bench.Kernels[name], d)
		}
		p, c := bench.Sides["parent"].Results[name], bench.Sides["change"].Results[name]
		if c.NsPerOp <= 0 {
			continue
		}
		if want := kernelSpeedup(p, c); bench.Speedup[name] != want {
			t.Errorf("speedup[%s] = %v, want %v from the recorded ns/op", name, bench.Speedup[name], want)
		}
	}
	checkGeneratorExists(t, command)
	return bench
}

// checkGeneratorExists requires the test a bench artifact's command runs
// to be defined in this package.
func checkGeneratorExists(t *testing.T, command string) {
	t.Helper()
	m := regexp.MustCompile(`-run (\w+)`).FindStringSubmatch(command)
	if m == nil {
		t.Fatalf("command %q names no test", command)
	}
	files, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	fset := token.NewFileSet()
	for _, f := range files {
		af, err := parser.ParseFile(fset, f, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range af.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.Name == m[1] {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("command %q runs %s, which no test file in this package defines", command, m[1])
	}
}
