package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	tilt "repro"
)

// goldenSeed is the seed whose reference digests are committed under
// bench/testdata; any other seed is checked against in-process execution.
const goldenSeed = 1

// refEvery: on a seed without golden digests, every refEvery-th request is
// checked against an in-process tilt.Execute of the same input.
const refEvery = 10

// fetched is the part of a GET /v1/jobs/{id}/result body the benchmark reads.
type fetched struct {
	State     string       `json:"state"`
	Error     string       `json:"error"`
	Deduped   bool         `json:"deduped"`
	Submitted time.Time    `json:"submitted"`
	Started   time.Time    `json:"started"`
	Finished  time.Time    `json:"finished"`
	Result    *tilt.Result `json:"result"`
}

// digest hashes the deterministic fields of a result: everything except
// the wall-clock pass timings (TILT.Passes, TSwap, TMove) and the
// compile-cache snapshot.
func digest(r *tilt.Result) (string, error) {
	c := *r
	c.Cache = nil
	if c.TILT != nil {
		t := *c.TILT
		t.Passes = nil
		t.TSwap, t.TMove = 0, 0
		c.TILT = &t
	}
	b, err := json.Marshal(&c)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8]), nil
}

// references executes inputs in-process on backends configured like the
// workload's linqd, memoizing one digest per input.
type references struct {
	in       *inputs
	backends map[string]tilt.Backend
	golden   []string // digests by input, when committed for this seed
}

func newReferences(w *workload, in *inputs, golden []string) *references {
	dev := tilt.WithDevice(0, w.head)
	tiltOpts := []tilt.Option{dev}
	if w.shots > 0 {
		tiltOpts = append(tiltOpts, tilt.WithShots(w.shots))
	}
	return &references{in: in, golden: golden, backends: map[string]tilt.Backend{
		"TILT":    tilt.NewTILT(tiltOpts...),
		"QCCD":    tilt.NewQCCD(dev),
		"IdealTI": tilt.NewIdealTI(dev),
	}}
}

// digests returns the reference digest of every listed input, executing
// those without a golden digest on GOMAXPROCS goroutines.
func (r *references) digests(entries []int) (map[int]string, error) {
	out := make(map[int]string, len(entries))
	var todo []int
	for _, k := range entries {
		if _, dup := out[k]; dup {
			continue
		}
		out[k] = ""
		if r.golden != nil {
			out[k] = r.golden[k]
		} else {
			todo = append(todo, k)
		}
	}
	var (
		mu   sync.Mutex
		errs []error
		wg   sync.WaitGroup
		work = make(chan int, len(todo))
	)
	for _, k := range todo {
		work <- k
	}
	close(work)
	for range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range work {
				d, err := r.execute(k)
				mu.Lock()
				out[k] = d
				if err != nil {
					errs = append(errs, err)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

func (r *references) execute(k int) (string, error) {
	e := r.in.entries[k]
	res, err := tilt.Execute(context.Background(), r.backends[e.backend], e.circ)
	if err != nil {
		return "", fmt.Errorf("reference for input %d: %w", k, err)
	}
	return digest(res)
}

// verdict is the correctness account of a set of jobs.
type verdict struct {
	attempted, failed, wrong, checked int
	notes                             []string
}

func (v *verdict) note(format string, args ...any) {
	if len(v.notes) < 8 {
		v.notes = append(v.notes, fmt.Sprintf(format, args...))
	}
}

// check verifies every job: refused, failed and lost jobs count as failed;
// a done result whose digest differs from its reference counts as wrong.
// With golden digests every result is compared, otherwise every
// refEvery-th request. With Monte Carlo on, every result must also agree
// with the analytic model: |CleanProbability − SuccessRate| ≤ 4·CleanStderr.
func (r *references) check(w *workload, phases []*phaseResult) (verdict, map[*job]*fetched, error) {
	var v verdict
	var compare []int
	parsed := make(map[*job]*fetched)
	var jobs []*job
	for _, ph := range phases {
		v.attempted += len(ph.jobs)
		v.failed += ph.lost
		if ph.lost > 0 {
			v.note("%d jobs lost", ph.lost)
		}
		jobs = append(jobs, ph.jobs...)
	}
	for _, j := range jobs {
		if j.id == "" {
			v.failed++
			v.note("submit %d refused with status %d", j.seq, j.status)
			continue
		}
		if j.result == nil {
			continue // lost, counted above
		}
		var f fetched
		if err := json.Unmarshal(j.result, &f); err != nil {
			return v, nil, fmt.Errorf("result of %s: %w", j.id, err)
		}
		if f.State != "done" || f.Result == nil {
			v.failed++
			v.note("job %s (input %d) %s: %s", j.id, j.entry, f.State, f.Error)
			continue
		}
		parsed[j] = &f
		if r.golden != nil || j.seq%refEvery == 0 {
			compare = append(compare, j.entry)
		}
		if mcs := f.Result.MC; w.shots > 0 {
			if mcs == nil || !mcs.HasStateFidelity ||
				math.Abs(mcs.CleanProbability-f.Result.SuccessRate) > 4*mcs.CleanStderr {
				v.wrong++
				v.note("job %s (input %d): Monte-Carlo estimate disagrees with the analytic model: %+v vs %g",
					j.id, j.entry, mcs, f.Result.SuccessRate)
			}
		}
	}
	want, err := r.digests(compare)
	if err != nil {
		return v, nil, err
	}
	for _, j := range jobs {
		f := parsed[j]
		if f == nil || (r.golden == nil && j.seq%refEvery != 0) {
			continue
		}
		got, err := digest(f.Result)
		if err != nil {
			return v, nil, err
		}
		v.checked++
		if got != want[j.entry] {
			v.wrong++
			v.note("job %s (input %d): result digest %s, reference %s", j.id, j.entry, got, want[j.entry])
		}
	}
	return v, parsed, nil
}

func goldenPath(root string, w *workload) string {
	return filepath.Join(root, "bench", "testdata", w.name+".golden")
}

// loadGolden reads the committed digests of the workload's seed-1 inputs;
// it returns nil when none are committed.
func loadGolden(root string, w *workload) ([]string, error) {
	f, err := os.Open(goldenPath(root, w))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" && line[0] != '#' {
			out = append(out, line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) != w.poolSize {
		return nil, fmt.Errorf("%s: %d digests for %d inputs; regenerate with -update-golden",
			goldenPath(root, w), len(out), w.poolSize)
	}
	return out, nil
}

// writeGolden executes every seed-1 input in-process and commits the
// digests.
func writeGolden(root string, w *workload, log io.Writer) error {
	in, err := w.generate(goldenSeed)
	if err != nil {
		return err
	}
	all := make([]int, w.poolSize)
	for i := range all {
		all[i] = i
	}
	start := time.Now()
	got, err := newReferences(w, in, nil).digests(all)
	if err != nil {
		return err
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "# linqbench reference digests: workload %s, seed %d, one line per input\n", w.name, goldenSeed)
	for _, k := range all {
		fmt.Fprintln(&b, got[k])
	}
	path := goldenPath(root, w)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(log, "linqbench: wrote %s (%d inputs, %.1fs)\n", path, w.poolSize, time.Since(start).Seconds())
	return nil
}
