package jobs_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	tilt "repro"
	"repro/internal/jobs"
	"repro/internal/journal"
)

// fakeBackend counts compiles and can block or fail on command.
type fakeBackend struct {
	name     string
	compiles atomic.Int64
	// gate, when non-nil, blocks every Compile until closed (or ctx done).
	gate chan struct{}
	// fail, when set, makes Compile return this error.
	fail error
	// order records the first qubit-count of each compiled circuit, in
	// execution order.
	mu    sync.Mutex
	order []int
}

func (f *fakeBackend) Name() string { return f.name }

func (f *fakeBackend) Compile(ctx context.Context, c *tilt.Circuit) (*tilt.Artifact, error) {
	f.compiles.Add(1)
	if f.gate != nil {
		select {
		case <-f.gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if f.fail != nil {
		return nil, f.fail
	}
	f.mu.Lock()
	f.order = append(f.order, c.NumQubits())
	f.mu.Unlock()
	return &tilt.Artifact{Backend: f.name, Circuit: c}, nil
}

func (f *fakeBackend) Simulate(ctx context.Context, a *tilt.Artifact) (*tilt.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return &tilt.Result{Backend: f.name, SuccessRate: 0.5}, nil
}

// waitTerminal polls until the job leaves the active states.
func waitTerminal(t *testing.T, m *jobs.Manager, id string) jobs.Job {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		j, err := m.Get(id)
		if err != nil {
			t.Fatalf("Get(%s): %v", id, err)
		}
		if j.State.Terminal() {
			return j
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return jobs.Job{}
}

func newManager(t *testing.T, pools []jobs.Pool, opts ...jobs.Option) *jobs.Manager {
	t.Helper()
	m, err := jobs.New(pools, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = m.Shutdown(ctx)
	})
	return m
}

func TestSubmitRunsToDone(t *testing.T) {
	be := &fakeBackend{name: "fake"}
	m := newManager(t, []jobs.Pool{{Name: "fake", Backend: be, Workers: 2}})

	id, err := m.Submit(jobs.Request{Name: "one", Backend: "fake", Circuit: tilt.GHZ(4).Circuit})
	if err != nil {
		t.Fatal(err)
	}
	j := waitTerminal(t, m, id)
	if j.State != jobs.StateDone {
		t.Fatalf("state = %s (err %q), want done", j.State, j.Error)
	}
	if j.Result == nil || j.Result.SuccessRate != 0.5 {
		t.Fatalf("result = %+v", j.Result)
	}
	if j.Submitted.IsZero() || j.Started.IsZero() || j.Finished.IsZero() {
		t.Errorf("missing lifecycle timestamps: %+v", j)
	}
	if j.Finished.Before(j.Started) || j.Started.Before(j.Submitted) {
		t.Errorf("timestamps out of order: %+v", j)
	}
}

func TestSubmitValidation(t *testing.T) {
	be := &fakeBackend{name: "fake"}
	m := newManager(t, []jobs.Pool{{Name: "fake", Backend: be}})
	if _, err := m.Submit(jobs.Request{Backend: "nope", Circuit: tilt.GHZ(3).Circuit}); !errors.Is(err, jobs.ErrUnknownBackend) {
		t.Errorf("unknown backend: err = %v", err)
	}
	if _, err := m.Submit(jobs.Request{Backend: "fake"}); err == nil {
		t.Error("nil circuit accepted")
	}
	if _, err := m.Get("j-unknown"); !errors.Is(err, jobs.ErrNotFound) {
		t.Errorf("unknown id: err = %v", err)
	}
}

// TestDedupSharesOneCompile: duplicate submissions of one circuit against a
// blocked pool all subscribe to a single execution — exactly one compile —
// and every subscriber receives the same Result pointer.
func TestDedupSharesOneCompile(t *testing.T) {
	gate := make(chan struct{})
	be := &fakeBackend{name: "fake", gate: gate}
	m := newManager(t, []jobs.Pool{{Name: "fake", Backend: be, Workers: 1}})

	c := tilt.GHZ(5).Circuit
	const n = 6
	ids := make([]string, n)
	var err error
	for i := range ids {
		if ids[i], err = m.Submit(jobs.Request{Backend: "fake", Circuit: c}); err != nil {
			t.Fatal(err)
		}
	}
	// Wait until the leader is actually compiling so every follower is
	// provably concurrent with it, then release.
	deadline := time.Now().Add(10 * time.Second)
	for be.compiles.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(gate)

	results := make([]*tilt.Result, n)
	for i, id := range ids {
		j := waitTerminal(t, m, id)
		if j.State != jobs.StateDone {
			t.Fatalf("job %s state = %s (%s)", id, j.State, j.Error)
		}
		if i > 0 && !j.Deduped {
			t.Errorf("follower %s not marked deduped", id)
		}
		results[i] = j.Result
	}
	if got := be.compiles.Load(); got != 1 {
		t.Errorf("backend compiled %d times, want 1", got)
	}
	for i := 1; i < n; i++ {
		if results[i] != results[0] {
			t.Errorf("subscriber %d got a different Result instance", i)
		}
	}
}

// TestPriorityOrdering: with a single worker held by a sentinel, queued
// jobs run highest-priority first, FIFO within a priority.
func TestPriorityOrdering(t *testing.T) {
	gate := make(chan struct{})
	be := &fakeBackend{name: "fake", gate: gate}
	m := newManager(t, []jobs.Pool{{Name: "fake", Backend: be, Workers: 1}})

	// Sentinel occupies the worker while the real jobs queue up.
	sentinel, err := m.Submit(jobs.Request{Backend: "fake", Circuit: tilt.GHZ(2).Circuit})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for be.compiles.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	// Distinct widths encode identity; priorities deliberately shuffled.
	widths := []int{3, 4, 5, 6}
	prios := []int{0, 5, 1, 5}
	ids := make([]string, len(widths))
	for i, w := range widths {
		ids[i], err = m.Submit(jobs.Request{
			Backend: "fake", Circuit: tilt.GHZ(w).Circuit, Priority: prios[i],
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	close(gate)
	for _, id := range append([]string{sentinel}, ids...) {
		if j := waitTerminal(t, m, id); j.State != jobs.StateDone {
			t.Fatalf("job %s: %s (%s)", id, j.State, j.Error)
		}
	}

	be.mu.Lock()
	order := append([]int(nil), be.order...)
	be.mu.Unlock()
	// Sentinel (width 2) first, then P5 FIFO (4 then 6), then P1 (5), P0 (3).
	want := []int{2, 4, 6, 5, 3}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Errorf("execution order %v, want %v", order, want)
	}
}

// TestTTLExpiresQueuedJob: a job whose TTL elapses while the worker is
// busy fails with ErrTTLExpired and is never compiled.
func TestTTLExpiresQueuedJob(t *testing.T) {
	gate := make(chan struct{})
	be := &fakeBackend{name: "fake", gate: gate}
	m := newManager(t, []jobs.Pool{{Name: "fake", Backend: be, Workers: 1}})

	sentinel, err := m.Submit(jobs.Request{Backend: "fake", Circuit: tilt.GHZ(2).Circuit})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for be.compiles.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	id, err := m.Submit(jobs.Request{
		Backend: "fake", Circuit: tilt.GHZ(7).Circuit, TTL: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	j := waitTerminal(t, m, id) // lazy expiry via Get, or pop-time pruning
	if j.State != jobs.StateFailed || !strings.Contains(j.Error, "TTL expired") {
		t.Fatalf("state = %s, err = %q; want failed with TTL expiry", j.State, j.Error)
	}
	close(gate)
	waitTerminal(t, m, sentinel)
	if got := be.compiles.Load(); got != 1 {
		t.Errorf("expired job was compiled (total %d, want 1)", got)
	}
}

// TestCancelQueuedAndRunning covers both cancellation paths.
func TestCancelQueuedAndRunning(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	be := &fakeBackend{name: "fake", gate: gate}
	m := newManager(t, []jobs.Pool{{Name: "fake", Backend: be, Workers: 1}})

	running, err := m.Submit(jobs.Request{Backend: "fake", Circuit: tilt.GHZ(2).Circuit})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for be.compiles.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	queued, err := m.Submit(jobs.Request{Backend: "fake", Circuit: tilt.GHZ(9).Circuit})
	if err != nil {
		t.Fatal(err)
	}

	// Cancel the queued job: it must never reach the backend.
	if err := m.Cancel(queued); err != nil {
		t.Fatal(err)
	}
	if j := waitTerminal(t, m, queued); j.State != jobs.StateCancelled {
		t.Errorf("queued job state = %s, want cancelled", j.State)
	}

	// Cancel the running job: its blocked Compile sees ctx.Done.
	if err := m.Cancel(running); err != nil {
		t.Fatal(err)
	}
	if j := waitTerminal(t, m, running); j.State != jobs.StateCancelled {
		t.Errorf("running job state = %s, want cancelled", j.State)
	}
	if got := be.compiles.Load(); got != 1 {
		t.Errorf("cancelled queued job was compiled (total %d, want 1)", got)
	}
	if err := m.Cancel(running); !errors.Is(err, jobs.ErrTerminal) {
		t.Errorf("re-cancel terminal job: err = %v, want ErrTerminal", err)
	}
}

// TestCancelOneDuplicateKeepsOthers: cancelling one subscriber of a shared
// execution leaves the execution running for the rest.
func TestCancelOneDuplicateKeepsOthers(t *testing.T) {
	gate := make(chan struct{})
	be := &fakeBackend{name: "fake", gate: gate}
	m := newManager(t, []jobs.Pool{{Name: "fake", Backend: be, Workers: 1}})

	c := tilt.GHZ(5).Circuit
	a, err := m.Submit(jobs.Request{Backend: "fake", Circuit: c})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for be.compiles.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	b, err := m.Submit(jobs.Request{Backend: "fake", Circuit: c})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Cancel(a); err != nil {
		t.Fatal(err)
	}
	close(gate)
	if j := waitTerminal(t, m, a); j.State != jobs.StateCancelled {
		t.Errorf("cancelled subscriber state = %s", j.State)
	}
	if j := waitTerminal(t, m, b); j.State != jobs.StateDone || j.Result == nil {
		t.Errorf("surviving subscriber state = %s (%s)", j.State, j.Error)
	}
}

func TestFailedJobReportsError(t *testing.T) {
	be := &fakeBackend{name: "fake", fail: errors.New("synthetic compile failure")}
	m := newManager(t, []jobs.Pool{{Name: "fake", Backend: be}})
	id, err := m.Submit(jobs.Request{Backend: "fake", Circuit: tilt.GHZ(3).Circuit})
	if err != nil {
		t.Fatal(err)
	}
	j := waitTerminal(t, m, id)
	if j.State != jobs.StateFailed || !strings.Contains(j.Error, "synthetic compile failure") {
		t.Errorf("state = %s, err = %q", j.State, j.Error)
	}
}

// TestShutdownDrains: jobs accepted before Shutdown all reach done, and
// Submit afterwards is refused.
func TestShutdownDrains(t *testing.T) {
	be := &fakeBackend{name: "fake"}
	m, err := jobs.New([]jobs.Pool{{Name: "fake", Backend: be, Workers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	ids := make([]string, n)
	for i := range ids {
		if ids[i], err = m.Submit(jobs.Request{Backend: "fake", Circuit: tilt.GHZ(2 + i%5).Circuit}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	for _, id := range ids {
		j, err := m.Get(id)
		if err != nil {
			t.Fatalf("Get(%s) after drain: %v", id, err)
		}
		if j.State != jobs.StateDone {
			t.Errorf("job %s drained to %s (%s), want done", id, j.State, j.Error)
		}
	}
	if _, err := m.Submit(jobs.Request{Backend: "fake", Circuit: tilt.GHZ(3).Circuit}); !errors.Is(err, jobs.ErrShuttingDown) {
		t.Errorf("Submit after Shutdown: err = %v, want ErrShuttingDown", err)
	}
}

// TestShutdownDeadlineCancelsStragglers: when the drain context expires, a
// wedged execution is cancelled rather than hanging Shutdown forever.
func TestShutdownDeadlineCancelsStragglers(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	be := &fakeBackend{name: "fake", gate: gate}
	m, err := jobs.New([]jobs.Pool{{Name: "fake", Backend: be, Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	id, err := m.Submit(jobs.Request{Backend: "fake", Circuit: tilt.GHZ(4).Circuit})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := m.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown: err = %v, want deadline exceeded", err)
	}
	j, err := m.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if j.State != jobs.StateCancelled {
		t.Errorf("straggler state = %s, want cancelled", j.State)
	}
}

// TestStoreEviction: the completed-job store is bounded; old jobs read as
// not found after eviction.
func TestStoreEviction(t *testing.T) {
	be := &fakeBackend{name: "fake"}
	m := newManager(t, []jobs.Pool{{Name: "fake", Backend: be, Workers: 1}},
		jobs.WithStoreSize(2))
	ids := make([]string, 3)
	var err error
	for i := range ids {
		// Distinct circuits so dedup never merges them.
		if ids[i], err = m.Submit(jobs.Request{Backend: "fake", Circuit: tilt.GHZ(3 + i).Circuit}); err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, m, ids[i])
	}
	if _, err := m.Get(ids[0]); !errors.Is(err, jobs.ErrNotFound) {
		t.Errorf("evicted job: err = %v, want ErrNotFound", err)
	}
	for _, id := range ids[1:] {
		if _, err := m.Get(id); err != nil {
			t.Errorf("recent job %s evicted early: %v", id, err)
		}
	}
}

// TestManagerMetricsSettle drives every lifecycle edge against a journaled,
// instrumented manager — dedup onto a queued and onto a running execution,
// cancellation while queued and while running (with and without a surviving
// subscriber), TTL expiry through Get and at pop time, a failing backend and
// plain completions — then checks that the settled sinks agree: Stats equals
// the metric series, every live gauge reads zero, and the journal holds
// exactly one submission and one terminal record per job.
func TestManagerMetricsSettle(t *testing.T) {
	reg := tilt.NewMetricsRegistry()
	dir := t.TempDir()
	jnl, err := journal.Open(dir, journal.WithoutSync())
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	be := &fakeBackend{name: "fake", gate: gate}
	bad := &fakeBackend{name: "bad", fail: errors.New("synthetic compile failure")}
	m, err := jobs.New([]jobs.Pool{
		{Name: "fake", Backend: be, Workers: 1},
		{Name: "bad", Backend: bad, Workers: 1},
	}, jobs.WithMetrics(reg), jobs.WithJournal(jnl))
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	submit := func(req jobs.Request) string {
		t.Helper()
		id, err := m.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		return id
	}
	state := func(id string) jobs.Job {
		t.Helper()
		j, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		return j
	}

	run := submit(jobs.Request{Backend: "fake", Circuit: tilt.GHZ(4).Circuit})
	waitState(t, m, run, jobs.StateRunning)
	dupRun := submit(jobs.Request{Backend: "fake", Circuit: tilt.GHZ(4).Circuit})
	q := submit(jobs.Request{Backend: "fake", Circuit: tilt.GHZ(5).Circuit})
	dupQ := submit(jobs.Request{Backend: "fake", Circuit: tilt.GHZ(5).Circuit})
	if j := state(dupRun); j.State != jobs.StateRunning || !j.Deduped {
		t.Fatalf("duplicate of a running execution: %+v", j)
	}
	if j := state(dupQ); j.State != jobs.StateQueued || !j.Deduped {
		t.Fatalf("duplicate of a queued execution: %+v", j)
	}

	cancelQ := submit(jobs.Request{Backend: "fake", Circuit: tilt.GHZ(6).Circuit})
	if err := m.Cancel(cancelQ); err != nil {
		t.Fatal(err)
	}
	ttlGet := submit(jobs.Request{Backend: "fake", Circuit: tilt.GHZ(7).Circuit, TTL: time.Millisecond})
	// ttlPop outranks q, so the worker pops (and prunes) it first; nothing
	// reads it before then, so only pop-time pruning can expire it.
	ttlPop := submit(jobs.Request{Backend: "fake", Circuit: tilt.GHZ(8).Circuit, TTL: time.Millisecond, Priority: 5})
	time.Sleep(10 * time.Millisecond)
	if j := state(ttlGet); j.State != jobs.StateFailed || !strings.Contains(j.Error, "TTL expired") {
		t.Fatalf("TTL expiry through Get: %+v", j)
	}

	// Cancel the running duplicate (its leader survives), then the leader
	// itself (nobody survives: the execution is interrupted).
	if err := m.Cancel(dupRun); err != nil {
		t.Fatal(err)
	}
	if j := state(run); j.State != jobs.StateRunning {
		t.Fatalf("surviving subscriber: state = %s", j.State)
	}
	if err := m.Cancel(run); err != nil {
		t.Fatal(err)
	}
	waitState(t, m, q, jobs.StateRunning)
	if j := state(ttlPop); j.State != jobs.StateFailed || !strings.Contains(j.Error, "TTL expired") {
		t.Fatalf("TTL expiry at pop time: %+v", j)
	}
	close(gate)

	failed := submit(jobs.Request{Backend: "bad", Circuit: tilt.GHZ(3).Circuit})
	const plain = 6
	for i := 0; i < plain; i++ {
		submit(jobs.Request{Backend: "fake", Circuit: tilt.GHZ(9 + i).Circuit})
	}
	for _, id := range ids {
		waitTerminal(t, m, id)
	}
	if j := state(failed); j.State != jobs.StateFailed {
		t.Fatalf("failing backend: state = %s", j.State)
	}

	st := m.Stats()
	want := jobs.Stats{
		Submitted: int64(len(ids)),
		Deduped:   2,         // dupRun, dupQ
		Done:      2 + plain, // q, dupQ, plain
		Failed:    3,         // ttlGet, ttlPop, failed
		Cancelled: 3,         // cancelQ, dupRun, run
	}
	if st != want {
		t.Errorf("Stats() = %+v, want %+v", st, want)
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	expo := b.String()
	sum := func(family, match string) int64 {
		var total float64
		for _, v := range seriesValues(expo, family, match) {
			total += v
		}
		return int64(total)
	}
	for _, c := range []struct {
		name      string
		stat, got int64
	}{
		{"submitted", st.Submitted, sum("linq_jobs_submitted_total", "")},
		{"deduped", st.Deduped, sum("linq_jobs_deduped_total", "")},
		{"done", st.Done, sum("linq_jobs_finished_total", `state="done"`)},
		{"failed", st.Failed, sum("linq_jobs_finished_total", `state="failed"`)},
		{"cancelled", st.Cancelled, sum("linq_jobs_finished_total", `state="cancelled"`)},
		{"ttl_expired", 2, sum("linq_jobs_ttl_expired_total", "")},
	} {
		if c.stat != c.got {
			t.Errorf("%s: Stats %d, metrics %d", c.name, c.stat, c.got)
		}
	}
	for _, family := range []string{"linq_jobs_queued", "linq_jobs_running"} {
		vals := seriesValues(expo, family, "")
		if len(vals) == 0 {
			t.Errorf("exposition has no %s series", family)
		}
		for _, v := range vals {
			if v != 0 {
				t.Errorf("%s settled at %v, want 0:\n%s", family, v, expo)
			}
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}
	reread, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reread.Close()
	submits, terminals := map[string]int{}, map[string]int{}
	if err := reread.Replay(func(rec journal.Record) error {
		switch {
		case rec.Op == journal.OpSubmitted:
			submits[rec.ID]++
		case rec.Op.Terminal():
			terminals[rec.ID]++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(submits) != len(ids) || len(terminals) != len(ids) {
		t.Errorf("journal covers %d submitted / %d terminal jobs, want %d each", len(submits), len(terminals), len(ids))
	}
	for _, id := range ids {
		if submits[id] != 1 || terminals[id] != 1 {
			t.Errorf("job %s journaled %d submitted and %d terminal records, want 1 each", id, submits[id], terminals[id])
		}
	}
}

// seriesValues returns the sample values of every series of the family in a
// Prometheus text exposition whose label set contains match.
func seriesValues(expo, family, match string) []float64 {
	var out []float64
	for _, line := range strings.Split(expo, "\n") {
		if !strings.HasPrefix(line, family+"{") || !strings.Contains(line, match) {
			continue
		}
		var v float64
		if _, err := fmt.Sscan(line[strings.LastIndexByte(line, ' ')+1:], &v); err == nil {
			out = append(out, v)
		}
	}
	return out
}

// TestConcurrentSubmitPollCancel hammers the manager from many goroutines
// (meaningful under -race): mixed duplicate/distinct circuits, concurrent
// polling, and scattered cancellations, then asserts every job terminated.
func TestConcurrentSubmitPollCancel(t *testing.T) {
	be := &fakeBackend{name: "fake"}
	m := newManager(t, []jobs.Pool{{Name: "fake", Backend: be, Workers: 4}})

	const clients, perClient = 8, 10
	var mu sync.Mutex
	var all []string
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				// Half the submissions share one circuit, half are distinct.
				w := 12
				if i%2 == 1 {
					w = 2 + (cl*perClient+i)%8
				}
				id, err := m.Submit(jobs.Request{
					Backend: "fake", Circuit: tilt.GHZ(w).Circuit, Priority: i % 3,
				})
				if err != nil {
					t.Error(err)
					return
				}
				if i%5 == 4 {
					_ = m.Cancel(id) // any outcome is legal; must not race
				}
				mu.Lock()
				all = append(all, id)
				mu.Unlock()
			}
		}(cl)
	}
	wg.Wait()
	for _, id := range all {
		j := waitTerminal(t, m, id)
		if j.State == jobs.StateDone && j.Result == nil {
			t.Errorf("job %s done without a result", id)
		}
	}
}

// TestCancelledHighPrioritySubscriberDeescalates: a high-priority duplicate
// raising a shared queued execution stops counting once cancelled — the
// surviving low-priority subscriber must queue at its own level again.
func TestCancelledHighPrioritySubscriberDeescalates(t *testing.T) {
	gate := make(chan struct{})
	be := &fakeBackend{name: "fake", gate: gate}
	m := newManager(t, []jobs.Pool{{Name: "fake", Backend: be, Workers: 1}})

	sentinel, err := m.Submit(jobs.Request{Backend: "fake", Circuit: tilt.GHZ(2).Circuit})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for be.compiles.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	x := tilt.GHZ(3).Circuit
	low, err := m.Submit(jobs.Request{Backend: "fake", Circuit: x, Priority: 0})
	if err != nil {
		t.Fatal(err)
	}
	booster, err := m.Submit(jobs.Request{Backend: "fake", Circuit: x, Priority: 9})
	if err != nil {
		t.Fatal(err)
	}
	mid, err := m.Submit(jobs.Request{Backend: "fake", Circuit: tilt.GHZ(4).Circuit, Priority: 5})
	if err != nil {
		t.Fatal(err)
	}
	// The booster leaves: X must fall back behind the priority-5 job.
	if err := m.Cancel(booster); err != nil {
		t.Fatal(err)
	}
	close(gate)
	for _, id := range []string{sentinel, low, mid} {
		if j := waitTerminal(t, m, id); j.State != jobs.StateDone {
			t.Fatalf("job %s: %s (%s)", id, j.State, j.Error)
		}
	}

	be.mu.Lock()
	order := append([]int(nil), be.order...)
	be.mu.Unlock()
	want := []int{2, 4, 3} // sentinel, mid (P5), then the de-escalated X (P0)
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Errorf("execution order %v, want %v", order, want)
	}
}

func TestWaitBlocksUntilTerminal(t *testing.T) {
	be := &fakeBackend{name: "fake", gate: make(chan struct{})}
	m := newManager(t, []jobs.Pool{{Name: "fake", Backend: be, Workers: 1}})

	id, err := m.Submit(jobs.Request{Backend: "fake", Circuit: tilt.GHZ(4).Circuit})
	if err != nil {
		t.Fatal(err)
	}

	// The gate is closed: Wait must observe the running job, block, and
	// wake with the done snapshot once the execution finishes.
	type outcome struct {
		j   jobs.Job
		err error
	}
	got := make(chan outcome, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		j, err := m.Wait(ctx, id)
		got <- outcome{j, err}
	}()
	time.Sleep(10 * time.Millisecond) // let Wait register before releasing
	close(be.gate)

	out := <-got
	if out.err != nil {
		t.Fatalf("Wait: %v", out.err)
	}
	if out.j.State != jobs.StateDone || out.j.Result == nil {
		t.Fatalf("Wait snapshot = %+v, want done with result", out.j)
	}

	// Already-terminal jobs return immediately.
	j, err := m.Wait(context.Background(), id)
	if err != nil || j.State != jobs.StateDone {
		t.Fatalf("Wait on terminal job = %+v, %v", j, err)
	}
}

func TestWaitHonorsContextAndUnknownID(t *testing.T) {
	be := &fakeBackend{name: "fake", gate: make(chan struct{})}
	defer close(be.gate)
	m := newManager(t, []jobs.Pool{{Name: "fake", Backend: be, Workers: 1}})

	if _, err := m.Wait(context.Background(), "j-bogus"); !errors.Is(err, jobs.ErrNotFound) {
		t.Errorf("Wait unknown id: err = %v, want ErrNotFound", err)
	}

	id, err := m.Submit(jobs.Request{Backend: "fake", Circuit: tilt.GHZ(4).Circuit})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := m.Wait(ctx, id); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Wait on gated job: err = %v, want deadline exceeded", err)
	}
}

func TestSubmitAfterShutdownIsTyped(t *testing.T) {
	be := &fakeBackend{name: "fake"}
	m, err := jobs.New([]jobs.Pool{{Name: "fake", Backend: be}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	_, err = m.Submit(jobs.Request{Backend: "fake", Circuit: tilt.GHZ(3).Circuit})
	if !errors.Is(err, jobs.ErrShuttingDown) {
		t.Errorf("Submit after Shutdown: err = %v, want ErrShuttingDown", err)
	}
}
