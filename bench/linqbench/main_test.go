package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"testing"
)

const repoRoot = "../.."

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

type benchMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

// TestBenchmarkJSON checks BENCHMARK.json's shape and that it declares
// exactly the workloads and metrics linqbench measures.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join(repoRoot, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(b, &top); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(top))
	for k := range top {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	if want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}; !slices.Equal(keys, want) {
		t.Fatalf("keys %v, want %v", keys, want)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []benchMetric `json:"end_to_end"`
		PerLayer []benchMetric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(spec.Command, []string{"bash", "bench/run.sh"}) || !slices.Equal(spec.Paths, []string{"bench"}) {
		t.Errorf("command %q, paths %q", spec.Command, spec.Paths)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", spec.RunSeconds)
	}

	seen := map[string]bool{}
	checkName := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("bad or repeated name %q", n)
		}
		seen[n] = true
	}
	if n := len(spec.Workloads); n < 2 || n > 8 || n != len(allWorkloads) {
		t.Errorf("%d workloads declared, linqbench has %d (2..8 allowed)", n, len(allWorkloads))
	}
	for i, w := range spec.Workloads {
		checkName(w.Name)
		if i < len(allWorkloads) && w.Name != allWorkloads[i].name {
			t.Errorf("workload %d is %q, linqbench runs %q", i, w.Name, allWorkloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || bytes.ContainsAny([]byte(w.Why), "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}

	check := func(kind string, got []benchMetric, want []struct{ name, unit string }, limit int, bounded bool) {
		if len(got) > limit || len(got) != len(want) {
			t.Errorf("%s: %d metrics declared, linqbench prints %d (at most %d allowed)", kind, len(got), len(want), limit)
		}
		for i, m := range got {
			checkName(m.Name)
			if i < len(want) && (m.Name != want[i].name || m.Unit != want[i].unit) {
				t.Errorf("%s %d: declared %s [%s], linqbench prints %s [%s]", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
			if !unitRE.MatchString(m.Unit) || (m.Better != "higher" && m.Better != "lower") {
				t.Errorf("%s: bad unit or direction: %+v", m.Name, m)
			}
			if bounded != (m.Bound != nil) || (bounded && (*m.Bound <= 0 || *m.Bound > 0.25)) {
				t.Errorf("%s: bound must be in (0, 0.25] on end-to-end metrics and absent on per-layer ones", m.Name)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, 16, true)
	check("per_layer", spec.PerLayer, perLayer, 128, false)

	setup := slices.IndexFunc(spec.EndToEnd, func(m benchMetric) bool { return m.Name == "setup_s" })
	if setup < 0 || spec.EndToEnd[setup].Unit != "s" || spec.EndToEnd[setup].Better != "lower" {
		t.Fatal("setup_s must be an end-to-end metric in s, lower is better")
	}
	for _, m := range spec.EndToEnd {
		if m.Name != "setup_s" && *m.Bound >= *spec.EndToEnd[setup].Bound {
			t.Errorf("%s: bound %g is not below setup_s's %g", m.Name, *m.Bound, *spec.EndToEnd[setup].Bound)
		}
	}
}

// TestSmoke runs every workload in both modes at a tiny scale against a
// freshly built linqd and checks that every declared metric prints and
// every result is correct.
func TestSmoke(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "linqd")
	if err := buildLinqd(repoRoot, bin); err != nil {
		t.Fatal(err)
	}
	for _, w := range allWorkloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.name+"/trace="+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"-workload", w.name, "-seed", "1", "-seconds", "0.4", "-scale", "0.02",
					"-trace", trace, "-root", repoRoot, "-linqd", bin, "-out", t.TempDir()}
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d\n%s", code, stderr.String())
				}
				lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
				var rep report
				if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
					t.Fatal(err)
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
					t.Errorf("correct %v, failed %d of %d\n%s", rep.Correct, rep.Failed, rep.Attempted, stderr.String())
				}
				want := endToEnd
				if trace == "1" {
					want = perLayer
				}
				if len(rep.Metrics) != len(want) {
					t.Errorf("%d metrics printed, want %d", len(rep.Metrics), len(want))
				}
				for _, m := range want {
					v, ok := rep.Metrics[m.name]
					if !ok || v.Unit != m.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
						t.Errorf("metric %s: %+v", m.name, v)
					}
					if trace == "0" && v.Value <= 0 {
						t.Errorf("end-to-end metric %s is %g", m.name, v.Value)
					}
				}
				if trace == "1" {
					// Layer shares are disjoint parts of client latency.
					sum := 0.0
					for _, layer := range []string{"linqhttp", "queue", "jobs", "compile", "simulate"} {
						v := rep.Metrics["share."+layer].Value
						if v < 0 {
							t.Errorf("share.%s = %g", layer, v)
						}
						sum += v
					}
					if sum <= 0 || sum > 1 {
						t.Errorf("layer shares sum to %g, want (0, 1]", sum)
					}
				}
			})
		}
	}
}

// TestRunScriptFailsWithoutRepository checks that the benchmark exits
// non-zero, printing no result, when only BENCHMARK.json and bench/ exist.
func TestRunScriptFailsWithoutRepository(t *testing.T) {
	dir := t.TempDir()
	cmd := exec.Command("cp", "-r", filepath.Join(repoRoot, "bench"), filepath.Join(repoRoot, "BENCHMARK.json"), dir)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("copy: %v\n%s", err, out)
	}
	run := exec.Command("bash", "bench/run.sh", "--workload", "intake-small", "--seed", "1", "--seconds", "1", "--trace", "0")
	run.Dir = dir
	var stdout bytes.Buffer
	run.Stdout = &stdout
	if err := run.Run(); err == nil {
		t.Fatal("run.sh succeeded without the repository")
	}
	if bytes.Contains(stdout.Bytes(), []byte(`"correct"`)) {
		t.Errorf("run.sh printed a result: %s", stdout.String())
	}
}
