// Package runner is the concurrent batch executor over the tilt.Backend
// API: it fans circuit × backend jobs across a bounded worker pool, so
// architecture sweeps, parameter studies, and service endpoints drive many
// compile+simulate pipelines at once without re-implementing the plumbing.
//
//	jobs := []runner.Job{
//		{Name: "QFT/TILT-16", Backend: tilt.NewTILT(tilt.WithDevice(64, 16)), Circuit: qft},
//		{Name: "QFT/QCCD", Backend: tilt.NewQCCD(tilt.WithDevice(64, 0)), Circuit: qft},
//	}
//	results := runner.Run(ctx, jobs, runner.WithWorkers(8))
//
// Results come back in job order regardless of completion order. Cancelling
// the context stops jobs that have not started and interrupts the ones in
// flight (the Backend implementations check the context during compilation
// and simulation); every affected JobResult carries the context's error.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	tilt "repro"
	"repro/internal/metrics"
)

// Job is one unit of batch work: a circuit to run on a backend.
type Job struct {
	// Name labels the job in results and logs (free-form, may be empty).
	Name string
	// Backend executes the job.
	Backend tilt.Backend
	// Circuit is the logical circuit to compile and simulate.
	Circuit *tilt.Circuit
}

// JobResult is the outcome of one Job. Exactly one of Result/Err is set.
type JobResult struct {
	// Name and Index echo the submitted job and its position in the batch.
	Name  string
	Index int
	// Backend is the backend's Name.
	Backend string
	// Artifact is the compiled program (nil if compilation failed).
	Artifact *tilt.Artifact
	// Result is the simulated outcome (nil on error).
	Result *tilt.Result
	// Err is the job's failure, including ctx.Err() for jobs cancelled
	// before or during execution.
	Err error
	// Elapsed is the job's wall-clock compile+simulate time (zero for
	// jobs that never started).
	Elapsed time.Duration
}

// options carries the Run knobs.
type options struct {
	workers int
	reg     *metrics.Registry
}

// Option configures a batch run.
type Option func(*options)

// WithWorkers bounds the number of jobs in flight at once (default:
// GOMAXPROCS). Values below 1 are treated as 1.
func WithWorkers(n int) Option {
	return func(o *options) { o.workers = n }
}

// WithMetrics records per-job telemetry into the registry: completion
// counters by backend and outcome (linq_runner_jobs_total) and a per-backend job
// latency histogram (linq_runner_job_seconds). Share the registry with the
// backends' tilt.WithMetrics to expose the whole stack through one scrape.
// Without it (or with a nil registry) the batch books into a private
// registry.
func WithMetrics(r *tilt.MetricsRegistry) Option {
	return func(o *options) { o.reg = r }
}

// instruments holds the pre-resolved runner metric handles.
type instruments struct {
	jobs   *metrics.CounterVec   // linq_runner_jobs_total{backend,status}
	jobSec *metrics.HistogramVec // linq_runner_job_seconds{backend}
}

func newInstruments(r *metrics.Registry) *instruments {
	return &instruments{
		jobs: r.CounterVec("linq_runner_jobs_total",
			"Batch jobs finished, by backend and outcome (ok, error, cancelled).",
			"backend", "status"),
		jobSec: r.HistogramVec("linq_runner_job_seconds",
			"Wall-clock compile+simulate latency of one batch job.", nil, "backend"),
	}
}

// record books one finished job into the registry.
func (mx *instruments) record(res JobResult) {
	status := "ok"
	switch {
	case errors.Is(res.Err, context.Canceled), errors.Is(res.Err, context.DeadlineExceeded):
		status = "cancelled"
	case res.Err != nil:
		status = "error"
	}
	backend := res.Backend
	if backend == "" {
		// A panic before the backend identified itself (nil Backend, or a
		// panicking Name()) leaves the field empty; don't mint an
		// empty-label series for it.
		backend = "unknown"
	}
	mx.jobs.With(backend, status).Inc()
	if res.Elapsed > 0 {
		mx.jobSec.With(backend).Observe(res.Elapsed.Seconds())
	}
}

// Run executes the jobs on a bounded worker pool and returns one JobResult
// per job, in job order. It never returns early: cancelled and failed jobs
// report through their JobResult.Err, so a batch is always fully accounted
// for.
func Run(ctx context.Context, jobs []Job, opts ...Option) []JobResult {
	o := options{workers: runtime.GOMAXPROCS(0)}
	for _, opt := range opts {
		opt(&o)
	}
	if o.workers < 1 {
		o.workers = 1
	}
	if o.workers > len(jobs) {
		o.workers = len(jobs)
	}
	if o.reg == nil {
		o.reg = metrics.NewRegistry()
	}
	mx := newInstruments(o.reg)

	results := make([]JobResult, len(jobs))
	// Buffered and filled up front: every send completes immediately, so
	// no feeder goroutine is needed — and none can be left blocked if the
	// workers are cancelled mid-batch.
	idx := make(chan int, len(jobs))
	for i := range jobs {
		idx <- i
	}
	close(idx)

	var wg sync.WaitGroup
	for w := 0; w < o.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i] = runOne(ctx, i, jobs[i], mx)
			}
		}()
	}
	wg.Wait()
	return results
}

// runOne executes a single job, honoring cancellation before it starts. A
// panic anywhere in the job — the Backend's Compile/Simulate or a nil
// Backend — is recovered into JobResult.Err (with the stack trace), so one
// bad job can never take down the worker pool or lose the rest of the
// batch's results.
func runOne(ctx context.Context, i int, j Job, mx *instruments) (res JobResult) {
	res = JobResult{Name: j.Name, Index: i}
	start := time.Now()
	defer func() {
		if r := recover(); r != nil {
			res.Result = nil
			res.Err = fmt.Errorf("runner: job %d (%q) panicked: %v\n%s", i, j.Name, r, debug.Stack())
			res.Elapsed = time.Since(start)
		}
		mx.record(res)
	}()
	res.Backend = j.Backend.Name()
	if err := ctx.Err(); err != nil {
		res.Err = err
		return res
	}
	a, err := j.Backend.Compile(ctx, j.Circuit)
	if err != nil {
		res.Err = err
		res.Elapsed = time.Since(start)
		return res
	}
	res.Artifact = a
	r, err := j.Backend.Simulate(ctx, a)
	res.Result = r
	res.Err = err
	res.Elapsed = time.Since(start)
	return res
}
