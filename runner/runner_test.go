package runner_test

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	tilt "repro"
	"repro/internal/jobs"
	"repro/internal/linqhttp"
	"repro/runner"
)

// fakeBackend lets the tests control execution without real compiles.
type fakeBackend struct {
	name string
	// compile is called by Compile; nil means "succeed immediately".
	compile func(ctx context.Context) error
	// inFlight/peak track concurrent Compile calls.
	inFlight *atomic.Int64
	peak     *atomic.Int64
}

func (f *fakeBackend) Name() string { return f.name }

func (f *fakeBackend) Compile(ctx context.Context, c *tilt.Circuit) (*tilt.Artifact, error) {
	if f.inFlight != nil {
		n := f.inFlight.Add(1)
		defer f.inFlight.Add(-1)
		for {
			p := f.peak.Load()
			if n <= p || f.peak.CompareAndSwap(p, n) {
				break
			}
		}
	}
	if f.compile != nil {
		if err := f.compile(ctx); err != nil {
			return nil, err
		}
	}
	return &tilt.Artifact{Backend: f.name, Circuit: c}, nil
}

func (f *fakeBackend) Simulate(ctx context.Context, a *tilt.Artifact) (*tilt.Result, error) {
	return &tilt.Result{Backend: f.name, SuccessRate: 1}, nil
}

// TestRunDeterministicOrdering: results come back in job order with the
// right indices and names, whatever order the workers finish in.
func TestRunDeterministicOrdering(t *testing.T) {
	const n = 40
	jobs := make([]runner.Job, n)
	for i := range jobs {
		jobs[i] = runner.Job{
			Name:    fmt.Sprintf("job-%02d", i),
			Backend: &fakeBackend{name: "fake"},
			Circuit: tilt.NewCircuit(2),
		}
	}
	results := runner.Run(context.Background(), jobs, runner.WithWorkers(7))
	if len(results) != n {
		t.Fatalf("got %d results, want %d", len(results), n)
	}
	for i, jr := range results {
		if jr.Index != i || jr.Name != jobs[i].Name {
			t.Errorf("result %d: Index=%d Name=%q", i, jr.Index, jr.Name)
		}
		if jr.Err != nil || jr.Result == nil {
			t.Errorf("result %d: err=%v", i, jr.Err)
		}
	}
}

// TestRunBoundedWorkers: no more than the configured number of jobs may be
// in flight at once, and the pool genuinely reaches that width (checked
// with atomics so -race validates the pool).
func TestRunBoundedWorkers(t *testing.T) {
	const workers = 4
	var inFlight, peak atomic.Int64
	full := make(chan struct{}) // closed once `workers` jobs are in flight
	var once sync.Once
	jobs := make([]runner.Job, 32)
	for i := range jobs {
		jobs[i] = runner.Job{
			Backend: &fakeBackend{
				name:     "fake",
				inFlight: &inFlight,
				peak:     &peak,
				compile: func(ctx context.Context) error {
					if inFlight.Load() >= workers {
						once.Do(func() { close(full) })
					}
					// Hold the first wave until the pool is saturated, with
					// a timeout escape so a buggy pool fails, not hangs.
					select {
					case <-full:
					case <-time.After(2 * time.Second):
					}
					return nil
				},
			},
			Circuit: tilt.NewCircuit(2),
		}
	}
	results := runner.Run(context.Background(), jobs, runner.WithWorkers(workers))
	for _, jr := range results {
		if jr.Err != nil {
			t.Fatalf("job %d failed: %v", jr.Index, jr.Err)
		}
	}
	if p := peak.Load(); p != workers {
		t.Errorf("peak concurrency %d, want exactly %d workers", p, workers)
	}
}

// TestRunCancellationMidBatch: cancelling the context while job 0 is in
// flight interrupts it and prevents every queued job from starting.
func TestRunCancellationMidBatch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var startedOnce sync.Once
	jobs := make([]runner.Job, 16)
	for i := range jobs {
		jobs[i] = runner.Job{
			Name: fmt.Sprintf("job-%d", i),
			Backend: &fakeBackend{
				name: "fake",
				compile: func(ctx context.Context) error {
					startedOnce.Do(func() { close(started) })
					<-ctx.Done() // simulate a long compile that honors ctx
					return ctx.Err()
				},
			},
			Circuit: tilt.NewCircuit(2),
		}
	}
	go func() {
		<-started
		cancel()
	}()
	results := runner.Run(ctx, jobs, runner.WithWorkers(1))
	for i, jr := range results {
		if !errors.Is(jr.Err, context.Canceled) {
			t.Errorf("job %d: err = %v, want context.Canceled", i, jr.Err)
		}
		if jr.Result != nil {
			t.Errorf("job %d: got a result after cancellation", i)
		}
	}
}

// TestRunRealBackends drives the runner end to end over the three real
// backends on a small workload and checks the unified results.
func TestRunRealBackends(t *testing.T) {
	bm := tilt.GHZ(12)
	jobs := []runner.Job{
		{Name: "tilt", Backend: tilt.NewTILT(tilt.WithDevice(12, 4)), Circuit: bm.Circuit},
		{Name: "qccd", Backend: tilt.NewQCCD(tilt.WithDevice(12, 4), tilt.WithCapacities(5)), Circuit: bm.Circuit},
		{Name: "ideal", Backend: tilt.NewIdealTI(tilt.WithDevice(12, 4)), Circuit: bm.Circuit},
	}
	results := runner.Run(context.Background(), jobs)
	for _, jr := range results {
		if jr.Err != nil {
			t.Fatalf("%s: %v", jr.Name, jr.Err)
		}
		if jr.Result.SuccessRate <= 0 || jr.Result.SuccessRate > 1 {
			t.Errorf("%s: success %g", jr.Name, jr.Result.SuccessRate)
		}
		if jr.Elapsed <= 0 {
			t.Errorf("%s: non-positive elapsed %v", jr.Name, jr.Elapsed)
		}
	}
	if results[0].Result.TILT == nil || results[1].Result.QCCD == nil {
		t.Error("backend-specific stats missing")
	}
	// The ideal device upper-bounds the real architectures.
	if results[2].Result.LogSuccess < results[0].Result.LogSuccess {
		t.Errorf("ideal (%g) below TILT (%g)",
			results[2].Result.LogSuccess, results[0].Result.LogSuccess)
	}
}

// TestRunEmptyBatch: a zero-job batch returns an empty, non-nil slice
// without spawning workers.
func TestRunEmptyBatch(t *testing.T) {
	if got := runner.Run(context.Background(), nil); len(got) != 0 {
		t.Errorf("got %d results for an empty batch", len(got))
	}
}

// panicBackend panics in Compile — a stand-in for a buggy custom Backend.
type panicBackend struct{}

func (panicBackend) Name() string { return "panic" }
func (panicBackend) Compile(ctx context.Context, c *tilt.Circuit) (*tilt.Artifact, error) {
	panic("boom: backend bug")
}
func (panicBackend) Simulate(ctx context.Context, a *tilt.Artifact) (*tilt.Result, error) {
	return nil, nil
}

// TestRunRecoversPanickingJob: a panic inside one job lands in that job's
// JobResult.Err and the rest of the batch completes normally — the worker
// pool survives.
func TestRunRecoversPanickingJob(t *testing.T) {
	const n = 12
	jobs := make([]runner.Job, n)
	for i := range jobs {
		jobs[i] = runner.Job{
			Name:    fmt.Sprintf("job-%d", i),
			Backend: &fakeBackend{name: "fake"},
			Circuit: tilt.NewCircuit(2),
		}
	}
	jobs[3].Backend = panicBackend{}
	jobs[8].Backend = nil // nil Backend panics on Name(): must also be contained

	results := runner.Run(context.Background(), jobs, runner.WithWorkers(3))
	if len(results) != n {
		t.Fatalf("got %d results, want %d", len(results), n)
	}
	for i, jr := range results {
		switch i {
		case 3:
			if jr.Err == nil || !strings.Contains(jr.Err.Error(), "panicked") {
				t.Errorf("job 3: err = %v, want recovered panic", jr.Err)
			}
			if !strings.Contains(jr.Err.Error(), "boom: backend bug") {
				t.Errorf("job 3: panic value missing from error: %v", jr.Err)
			}
		case 8:
			if jr.Err == nil || !strings.Contains(jr.Err.Error(), "panicked") {
				t.Errorf("job 8: err = %v, want recovered panic", jr.Err)
			}
		default:
			if jr.Err != nil || jr.Result == nil {
				t.Errorf("job %d lost to a neighboring panic: err=%v", i, jr.Err)
			}
		}
	}
}

// TestRunWithMetrics: after the batch settles, the registry's counters
// account for every job by outcome and the latency histogram saw every
// completed job.
func TestRunWithMetrics(t *testing.T) {
	reg := tilt.NewMetricsRegistry()
	jobs := make([]runner.Job, 10)
	for i := range jobs {
		jobs[i] = runner.Job{
			Name:    fmt.Sprintf("job-%d", i),
			Backend: &fakeBackend{name: "fake"},
			Circuit: tilt.NewCircuit(2),
		}
	}
	jobs[2].Backend = nil // panics before Name(): must land in "unknown"
	jobs[4].Backend = &fakeBackend{
		name:    "fake",
		compile: func(ctx context.Context) error { return errors.New("synthetic failure") },
	}
	jobs[7].Backend = panicBackend{}

	runner.Run(context.Background(), jobs, runner.WithWorkers(4), runner.WithMetrics(reg))

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`linq_runner_jobs_total{backend="fake",status="ok"} 7`,
		`linq_runner_jobs_total{backend="fake",status="error"} 1`,
		`linq_runner_jobs_total{backend="panic",status="error"} 1`,
		`linq_runner_jobs_total{backend="unknown",status="error"} 1`,
		`linq_runner_job_seconds_count{backend="fake"} 8`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// startPoolDaemon boots one in-process linqd HTTP API for the fleet test.
func startPoolDaemon(t *testing.T) string {
	t.Helper()
	reg := tilt.NewMetricsRegistry()
	mgr, err := jobs.New([]jobs.Pool{
		{Name: "TILT", Backend: tilt.NewTILT(tilt.WithDevice(0, 4)), Workers: 2},
	}, jobs.WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(linqhttp.NewServer(mgr, reg).Routes())
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = mgr.Shutdown(ctx)
	})
	return srv.URL
}

// TestRunOverRemotePool is the fleet-scale acceptance check: a runner
// batch fanned over a Pool of two linqd daemons completes every job, keeps
// deterministic result ordering, and produces the same Results an
// in-process backend would.
func TestRunOverRemotePool(t *testing.T) {
	ctx := context.Background()
	fleet := []tilt.Backend{
		tilt.Remote(startPoolDaemon(t)),
		tilt.Remote(startPoolDaemon(t)),
	}
	pool, err := tilt.Pool(fleet)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	local := tilt.NewTILT(tilt.WithDevice(0, 4))
	widths := []int{6, 8, 10, 12, 6, 8, 10, 12}
	var jobsBatch []runner.Job
	for i, w := range widths {
		jobsBatch = append(jobsBatch, runner.Job{
			Name:    fmt.Sprintf("ghz-%d-%d", w, i),
			Backend: pool,
			Circuit: tilt.GHZ(w).Circuit,
		})
	}
	results := runner.Run(ctx, jobsBatch, runner.WithWorkers(4))

	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("job %d (%s): %v", i, jobsBatch[i].Name, res.Err)
		}
		if res.Index != i || res.Name != jobsBatch[i].Name {
			t.Fatalf("result %d out of order: got index %d name %q", i, res.Index, res.Name)
		}
		want, err := tilt.Execute(ctx, local, jobsBatch[i].Circuit)
		if err != nil {
			t.Fatal(err)
		}
		if res.Result.SuccessRate != want.SuccessRate || res.Result.TILT == nil ||
			res.Result.TILT.Moves != want.TILT.Moves {
			t.Errorf("job %d: remote pool result diverges from local: got %+v want %+v",
				i, res.Result, want)
		}
	}
}
