package tilt_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	tilt "repro"
	"repro/internal/jobs"
	"repro/internal/linqhttp"
)

// slowBackend succeeds after a fixed delay (or fails fast with ctx.Err()
// when cancelled first) — the hedging victim.
type slowBackend struct {
	name  string
	delay time.Duration
}

func (f *slowBackend) Name() string { return f.name }

func (f *slowBackend) wait(ctx context.Context) error {
	t := time.NewTimer(f.delay)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

func (f *slowBackend) Compile(ctx context.Context, c *tilt.Circuit) (*tilt.Artifact, error) {
	if err := f.wait(ctx); err != nil {
		return nil, err
	}
	return &tilt.Artifact{Backend: f.name, Circuit: c}, nil
}

func (f *slowBackend) Simulate(ctx context.Context, a *tilt.Artifact) (*tilt.Result, error) {
	if err := f.wait(ctx); err != nil {
		return nil, err
	}
	return &tilt.Result{Backend: f.name, SuccessRate: 1}, nil
}

// reportingBackend is a countingBackend that also exposes a live health
// report, feeding the pool's background sampler.
type reportingBackend struct {
	countingBackend
	mu   sync.Mutex
	load tilt.RemoteLoad
}

func (f *reportingBackend) setLoad(queued, running int, draining bool) {
	f.mu.Lock()
	f.load.Queued, f.load.Running, f.load.Draining = queued, running, draining
	f.mu.Unlock()
}

func (f *reportingBackend) Health(ctx context.Context) (tilt.RemoteHealth, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	l := f.load
	l.Backend = "TILT"
	return tilt.RemoteHealth{Version: "test", Load: []tilt.RemoteLoad{l}}, nil
}

// waitUntil polls cond every millisecond until it holds or the deadline
// lapses.
func waitUntil(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPoolHedgeOutrunsSlowPrimary: the primary sits on its result past the
// hedge delay, the hedge lands on the fast member, and its result wins
// while the slow attempt is cancelled — which must not count as a fault
// against the slow member's breaker.
func TestPoolHedgeOutrunsSlowPrimary(t *testing.T) {
	ctx := context.Background()
	slow := &slowBackend{name: "slow", delay: 10 * time.Second}
	fast := &countingBackend{name: "fast"}
	p, err := tilt.Pool([]tilt.Backend{slow, fast},
		tilt.PoolWithHedging(20*time.Millisecond),
		tilt.PoolWithBreaker(1, time.Hour)) // one fault would trip it
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	start := time.Now()
	res, err := tilt.Execute(ctx, p, tilt.GHZ(4).Circuit)
	if err != nil {
		t.Fatal(err)
	}
	if res.Backend != "fast" {
		t.Errorf("winner = %s, want fast", res.Backend)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("hedged call took %v — the hedge did not outrun the slow member", elapsed)
	}
	// The cancelled loser (context.Canceled) must not have poisoned the
	// slow member's breaker, even at failMax=1.
	if h := p.Healthy(); h != 2 {
		t.Errorf("Healthy() = %d, want 2 (cancelled hedge loser counted as a fault)", h)
	}
}

// TestPoolHedgeToDrainingMemberKeepsHealthyBreakerClosed: the hedge lands
// on a draining member, which refuses with shutting_down. The draining
// member leaves rotation (its own breaker opens), the healthy primary's
// breaker stays closed, and the call still succeeds from the primary.
func TestPoolHedgeToDrainingMemberKeepsHealthyBreakerClosed(t *testing.T) {
	ctx := context.Background()
	// Slow enough that the hedge always fires, fast enough to finish.
	primary := &slowBackend{name: "primary", delay: 120 * time.Millisecond}
	draining := &countingBackend{name: "draining",
		fail: &tilt.RemoteError{Status: 503, Code: "shutting_down", Message: "drain"}}
	p, err := tilt.Pool([]tilt.Backend{primary, draining},
		tilt.PoolWithHedging(10*time.Millisecond),
		tilt.PoolWithBreaker(100, time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	res, err := tilt.Execute(ctx, p, tilt.GHZ(4).Circuit)
	if err != nil {
		t.Fatalf("hedge onto a draining member sank the healthy call: %v", err)
	}
	if res.Backend != "primary" {
		t.Errorf("winner = %s, want primary", res.Backend)
	}
	if h := p.Healthy(); h != 1 {
		t.Errorf("Healthy() = %d, want 1 (draining member out, primary in)", h)
	}
	// The healthy member keeps serving without hedges (no alternative with
	// a workable breaker remains).
	for i := 0; i < 3; i++ {
		if _, err := tilt.Execute(ctx, p, tilt.GHZ(4).Circuit); err != nil {
			t.Fatalf("call %d after drain: %v", i, err)
		}
	}
	if got := draining.compiles.Load() + draining.sims.Load(); got != 1 {
		t.Errorf("draining member saw %d calls, want 1 (single hedge probe)", got)
	}
}

// TestPoolHedgeFiresImmediatelyOnPrimaryFailure: a primary that fails
// outright fires the hedge at once instead of waiting out the delay.
func TestPoolHedgeFiresImmediatelyOnPrimaryFailure(t *testing.T) {
	ctx := context.Background()
	sick := &countingBackend{name: "sick", fail: &tilt.RemoteError{Status: 502, Message: "down"}}
	well := &countingBackend{name: "well"}
	p, err := tilt.Pool([]tilt.Backend{sick, well},
		tilt.PoolWithHedging(time.Hour)) // the delay must not matter
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	start := time.Now()
	res, err := tilt.Execute(ctx, p, tilt.GHZ(4).Circuit)
	if err != nil {
		t.Fatal(err)
	}
	if res.Backend != "well" {
		t.Errorf("winner = %s, want well", res.Backend)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Errorf("failover took %v, want immediate", elapsed)
	}
}

// TestPoolHedgeBothFailReturnsPrimaryError: when primary and hedge both
// fail, the caller sees the primary's error.
func TestPoolHedgeBothFailReturnsPrimaryError(t *testing.T) {
	ctx := context.Background()
	a := &countingBackend{name: "a", fail: &tilt.RemoteError{Status: 502, Message: "a down"}}
	b := &countingBackend{name: "b", fail: &tilt.RemoteError{Status: 502, Message: "b down"}}
	p, err := tilt.Pool([]tilt.Backend{a, b}, tilt.PoolWithHedging(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	_, err = tilt.Execute(ctx, p, tilt.GHZ(4).Circuit)
	if err == nil || !strings.Contains(err.Error(), "a down") {
		t.Errorf("err = %v, want the primary's error", err)
	}
}

// TestPoolWeightedRoutesAroundDeepQueue: the sampler feeds daemon-reported
// queue depth into the pick, so new work avoids the member with the deep
// queue even though both are idle client-side.
func TestPoolWeightedRoutesAroundDeepQueue(t *testing.T) {
	ctx := context.Background()
	deep := &reportingBackend{countingBackend: countingBackend{name: "deep"}}
	shallow := &reportingBackend{countingBackend: countingBackend{name: "shallow"}}
	deep.setLoad(50, 2, false)
	shallow.setLoad(1, 0, false)
	p, err := tilt.Pool([]tilt.Backend{deep, shallow},
		tilt.PoolWithSampleInterval(5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// Wait for the sampler to land a sample that separates the members.
	waitUntil(t, 10*time.Second, func() bool {
		art, err := p.Compile(ctx, tilt.GHZ(4).Circuit)
		return err == nil && art.Backend == "shallow"
	})
	for i := 0; i < 8; i++ {
		art, err := p.Compile(ctx, tilt.GHZ(4).Circuit)
		if err != nil {
			t.Fatal(err)
		}
		if art.Backend != "shallow" {
			t.Fatalf("pick %d went to the deep queue (%s)", i, art.Backend)
		}
	}

	// Load inverts: the pick follows.
	deep.setLoad(0, 0, false)
	shallow.setLoad(60, 3, false)
	waitUntil(t, 10*time.Second, func() bool {
		art, err := p.Compile(ctx, tilt.GHZ(4).Circuit)
		return err == nil && art.Backend == "deep"
	})
}

// TestPoolWeightedSkipsDrainingMember: a member whose daemon reports
// draining is not picked while a non-draining alternative exists, even
// when the drainer's queue is shorter.
func TestPoolWeightedSkipsDrainingMember(t *testing.T) {
	ctx := context.Background()
	drainer := &reportingBackend{countingBackend: countingBackend{name: "drainer"}}
	busy := &reportingBackend{countingBackend: countingBackend{name: "busy"}}
	drainer.setLoad(0, 0, true)
	busy.setLoad(20, 2, false)
	p, err := tilt.Pool([]tilt.Backend{drainer, busy},
		tilt.PoolWithSampleInterval(5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	waitUntil(t, 10*time.Second, func() bool {
		art, err := p.Compile(ctx, tilt.GHZ(4).Circuit)
		return err == nil && art.Backend == "busy"
	})
	for i := 0; i < 8; i++ {
		art, err := p.Compile(ctx, tilt.GHZ(4).Circuit)
		if err != nil {
			t.Fatal(err)
		}
		if art.Backend != "busy" {
			t.Fatalf("pick %d went to the draining member", i)
		}
	}
}

// TestPoolAdmissionControl: with every member's fresh sample over the
// watermark the pool refuses Compiles with ErrFleetSaturated; capacity on
// any one member re-admits.
func TestPoolAdmissionControl(t *testing.T) {
	ctx := context.Background()
	a := &reportingBackend{countingBackend: countingBackend{name: "a"}}
	b := &reportingBackend{countingBackend: countingBackend{name: "b"}}
	a.setLoad(30, 0, false)
	b.setLoad(40, 0, false)
	reg := tilt.NewMetricsRegistry()
	p, err := tilt.Pool([]tilt.Backend{a, b},
		tilt.PoolWithAdmissionControl(10),
		tilt.PoolWithSampleInterval(5*time.Millisecond),
		tilt.PoolWithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	waitUntil(t, 10*time.Second, func() bool {
		_, err := p.Compile(ctx, tilt.GHZ(4).Circuit)
		return errors.Is(err, tilt.ErrFleetSaturated)
	})

	// One member drops under the watermark: work flows again, onto it or
	// not — admission control only gates, it does not route.
	b.setLoad(2, 0, false)
	waitUntil(t, 10*time.Second, func() bool {
		_, err := p.Compile(ctx, tilt.GHZ(4).Circuit)
		return err == nil
	})
}

// TestPoolAdmissionControlAdmitsOnPartialKnowledge: members without a
// health report never count toward saturation — a fleet the sampler cannot
// see is never throttled client-side.
func TestPoolAdmissionControlAdmitsOnPartialKnowledge(t *testing.T) {
	ctx := context.Background()
	over := &reportingBackend{countingBackend: countingBackend{name: "over"}}
	over.setLoad(99, 0, false)
	blind := &countingBackend{name: "blind"} // no Health method
	p, err := tilt.Pool([]tilt.Backend{over, blind},
		tilt.PoolWithAdmissionControl(10),
		tilt.PoolWithSampleInterval(5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	time.Sleep(25 * time.Millisecond) // give the sampler a few ticks
	for i := 0; i < 5; i++ {
		if _, err := p.Compile(ctx, tilt.GHZ(4).Circuit); err != nil {
			t.Fatalf("compile %d refused with a blind member in the fleet: %v", i, err)
		}
	}
}

// TestPoolSamplesRemoteMembersByDefault: a Pool of Remote members built
// with no options starts the health sampler, and Close stops it: once the
// client's idle connections are closed, the goroutine count is back to its
// baseline from before the pool existed.
func TestPoolSamplesRemoteMembersByDefault(t *testing.T) {
	ctx := context.Background()
	var samples atomic.Int64
	observe := func(r *http.Request) {
		if r.Method == http.MethodGet && r.URL.Path == "/v1/backends" {
			samples.Add(1)
		}
	}
	urlA, _ := startDaemonWithTILT(t, tilt.NewTILT(tilt.WithDevice(0, 4)), observe)
	urlB, _ := startDaemonWithTILT(t, tilt.NewTILT(tilt.WithDevice(0, 4)), observe)
	tr := &http.Transport{}
	client := &http.Client{Transport: tr}
	baseline := runtime.NumGoroutine()

	p, err := tilt.Pool([]tilt.Backend{
		tilt.Remote(urlA, tilt.RemoteTarget("TILT"), tilt.RemoteHTTPClient(client)),
		tilt.Remote(urlB, tilt.RemoteTarget("TILT"), tilt.RemoteHTTPClient(client)),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := tilt.Execute(ctx, p, tilt.GHZ(6).Circuit); err != nil {
		t.Fatal(err)
	}
	// Two sampler ticks over two members.
	waitUntil(t, 10*time.Second, func() bool { return samples.Load() >= 4 })

	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 10*time.Second, func() bool {
		// A fetch cancelled by Close may park its connection after an
		// earlier sweep, so close idle connections on every poll.
		tr.CloseIdleConnections()
		return runtime.NumGoroutine() <= baseline
	})
}

// TestRemoteMaxPollIntervalOption: the option and the pollmax URI parameter
// both set the poll-backoff ceiling the hedging path derives its auto
// delay from.
func TestRemoteMaxPollIntervalOption(t *testing.T) {
	b := tilt.Remote("http://127.0.0.1:1", tilt.RemoteMaxPollInterval(750*time.Millisecond))
	if got := b.MaxPollInterval(); got != 750*time.Millisecond {
		t.Errorf("MaxPollInterval() = %v, want 750ms", got)
	}

	base, _ := startTestDaemon(t)
	be, err := tilt.Open(context.Background(),
		"linqd://"+strings.TrimPrefix(base, "http://")+"?backend=TILT&pollmax=1s")
	if err != nil {
		t.Fatal(err)
	}
	rb, ok := be.(*tilt.RemoteBackend)
	if !ok {
		t.Fatalf("Open returned %T, want *RemoteBackend", be)
	}
	if got := rb.MaxPollInterval(); got != time.Second {
		t.Errorf("pollmax URI param: MaxPollInterval() = %v, want 1s", got)
	}
}

// startDelayedDaemon is startTestDaemon behind a response-delaying
// middleware: every request sits for delay before the daemon sees it — an
// overloaded (but correct) member for hedging e2e.
func startDelayedDaemon(t *testing.T, delay time.Duration) (string, *jobs.Manager) {
	t.Helper()
	reg := tilt.NewMetricsRegistry()
	mgr, err := jobs.New([]jobs.Pool{
		{Name: "TILT", Backend: tilt.NewTILT(tilt.WithDevice(0, 4)), Workers: 2},
	}, jobs.WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	inner := linqhttp.NewServer(mgr, reg).Routes()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		timer := time.NewTimer(delay)
		defer timer.Stop()
		select {
		case <-r.Context().Done():
			return // the client gave up mid-delay
		case <-timer.C:
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = mgr.Shutdown(ctx)
	})
	return srv.URL, mgr
}

// TestPoolHedgingE2ETwoDaemons is the live acceptance check: two real
// linqd HTTP daemons, one answering every request slowly. The hedge
// outruns the slow member — the fast daemon completes the job well before
// the slow daemon could have — and the slow attempt is cancelled rather
// than left running.
func TestPoolHedgingE2ETwoDaemons(t *testing.T) {
	ctx := context.Background()
	const lag = 2 * time.Second
	slowURL, _ := startDelayedDaemon(t, lag)
	fastURL, fastMgr := startTestDaemon(t, tilt.WithDevice(0, 4))

	slow := tilt.Remote(slowURL, tilt.RemoteTarget("TILT"))
	fast := tilt.Remote(fastURL, tilt.RemoteTarget("TILT"))
	p, err := tilt.Pool([]tilt.Backend{slow, fast},
		tilt.PoolWithHedging(25*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	start := time.Now()
	res, err := tilt.Execute(ctx, p, tilt.GHZ(6).Circuit)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if res.Backend != "TILT" {
		t.Errorf("Result.Backend = %q", res.Backend)
	}
	if elapsed >= lag {
		t.Errorf("hedged execute took %v, want under the slow member's %v lag", elapsed, lag)
	}
	if done := fastMgr.Stats().Done; done < 1 {
		t.Errorf("fast daemon completed %d jobs, want >= 1 (the hedge should have won)", done)
	}
	// The cancelled slow attempt must not have tripped a breaker.
	if h := p.Healthy(); h != 2 {
		t.Errorf("Healthy() = %d, want 2", h)
	}
}
