package tilt

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// PoolBackend fans work out across a fleet of member backends behind the
// single Backend contract: Compile picks the least-loaded member, Simulate
// routes the artifact back to the member that compiled it, and a
// per-member circuit breaker takes failing endpoints out of rotation for a
// cooldown. Members are typically Remote backends pointing at N linqd
// daemons, but any Backend mix works — the runner and the jobs manager
// scale across the fleet with zero call-site changes.
//
// A member's load is its client-side in-flight count plus, for members
// that expose a live load report (RemoteBackend.Health), the queue depth
// and running work its daemon last reported; draining members are skipped
// while any alternative exists. The reports come from a background health
// sampler that runs whenever at least one member exposes one, so call
// Close when the pool is retired. Without a fresh report a member scores
// on its in-flight count alone, and ties go to the first member.
//
// A PoolBackend is safe for concurrent use.
type PoolBackend struct {
	name     string
	members  []*poolMember
	failMax  int           // consecutive endpoint failures that open the breaker
	cooldown time.Duration // how long an open breaker keeps a member out

	hedging    bool          // PoolWithHedging enabled
	hedgeDelay time.Duration // 0 = derive from the primary's poll ceiling
	watermark  int           // admission-control queue-depth watermark (0 = off)

	sampleEvery time.Duration      // health sampler period
	stop        context.CancelFunc // stops the sampler (nil = no sampler)
	stopped     chan struct{}      // closed once the sampler has exited

	mx *poolInstruments
}

// healthTimeout bounds each member's health fetch within a Health sweep or
// sampler tick, so one hung daemon cannot stall the whole fleet sample.
const healthTimeout = 2 * time.Second

// poolMember is one endpoint plus its load, sample, and breaker state.
type poolMember struct {
	b        Backend
	inflight atomic.Int64 // Compile/Simulate calls currently executing here

	mu        sync.Mutex
	fails     int       // consecutive endpoint failures
	openUntil time.Time // breaker open until (zero = closed)
	sample    loadSample
}

// loadSample is the member's last daemon-reported load, stored by the
// background sampler and read by pick and admission control.
type loadSample struct {
	when     time.Time // zero = never sampled
	queued   int       // jobs waiting daemon-side (the routing signal)
	running  int       // jobs on daemon workers
	draining bool      // daemon stopped intake
}

// PoolOption configures a PoolBackend.
type PoolOption func(*PoolBackend)

// PoolWithHedging enables tail-latency hedging on Compile and Simulate:
// when the attempt on the picked member has not returned after delay, the
// pool launches a second attempt on the next-best member, the first
// successful result wins, and the loser's context is cancelled (a
// cancelled loser never counts against its member's breaker). A primary
// that fails outright fires the hedge immediately. Zero delay derives the
// hedge trigger from the primary member's poll-backoff ceiling
// (RemoteMaxPollInterval) when it exposes one — the longest a healthy
// remote attempt sits between result polls — and 50ms otherwise.
func PoolWithHedging(delay time.Duration) PoolOption {
	return func(p *PoolBackend) { p.hedging, p.hedgeDelay = true, delay }
}

// PoolWithAdmissionControl refuses new Compiles with ErrFleetSaturated
// while every member's last health sample reports a daemon-side queue
// depth over the watermark (a draining member counts as over). The check
// only engages once every member has a fresh sample — partial knowledge
// admits, so a fleet of members without health reports is never throttled
// client-side.
func PoolWithAdmissionControl(watermark int) PoolOption {
	return func(p *PoolBackend) { p.watermark = watermark }
}

// PoolWithSampleInterval tunes the background health sampler period
// (default 500ms). Samples older than four periods are treated as stale by
// pick and admission control.
func PoolWithSampleInterval(d time.Duration) PoolOption {
	return func(p *PoolBackend) { p.sampleEvery = d }
}

// PoolWithBreaker tunes the per-member circuit breaker: failMax
// consecutive endpoint failures open it and the member sits out for
// cooldown before the next attempt half-opens it (defaults 3 and 15s). A
// daemon that reports it is draining (RemoteError.ShuttingDown) opens the
// breaker immediately without counting as a failure.
func PoolWithBreaker(failMax int, cooldown time.Duration) PoolOption {
	return func(p *PoolBackend) { p.failMax, p.cooldown = failMax, cooldown }
}

// PoolWithName overrides the pool's Backend name (default "pool(n)").
func PoolWithName(name string) PoolOption {
	return func(p *PoolBackend) { p.name = name }
}

// PoolWithMetrics instruments the pool against the registry: pick counters,
// endpoint-failure and breaker-trip counters, open-breaker/in-flight
// gauges, and the linq_fleet_* live-routing families (sampled queue depth,
// hedges fired and won, admission refusals), all labeled by member backend
// name. Without it (or with a nil registry) the pool books into a private
// registry.
func PoolWithMetrics(r *MetricsRegistry) PoolOption {
	return func(p *PoolBackend) { p.mx = newPoolInstruments(r) }
}

// poolInstruments holds the pool's pre-resolved metric handles.
type poolInstruments struct {
	picks     *metrics.CounterVec // linq_pool_picks_total{endpoint}
	failures  *metrics.CounterVec // linq_pool_endpoint_failures_total{endpoint}
	trips     *metrics.CounterVec // linq_pool_breaker_trips_total{endpoint}
	open      *metrics.GaugeVec   // linq_pool_breaker_open{endpoint}
	inflight  *metrics.GaugeVec   // linq_pool_inflight{endpoint}
	depth     *metrics.GaugeVec   // linq_fleet_queue_depth{endpoint}
	sampleErr *metrics.CounterVec // linq_fleet_sample_errors_total{endpoint}
	hedges    *metrics.CounterVec // linq_fleet_hedges_total{endpoint}
	hedgeWins *metrics.CounterVec // linq_fleet_hedge_wins_total{endpoint}
	saturated *metrics.Counter    // linq_fleet_saturated_total
}

// newPoolInstruments resolves the pool's families in r; a nil registry means
// a private one.
func newPoolInstruments(r *metrics.Registry) *poolInstruments {
	if r == nil {
		r = metrics.NewRegistry()
	}
	return &poolInstruments{
		picks: r.CounterVec("linq_pool_picks_total",
			"Pool routing decisions, by member endpoint.", "endpoint"),
		failures: r.CounterVec("linq_pool_endpoint_failures_total",
			"Endpoint-attributable member failures (transport, 5xx).", "endpoint"),
		trips: r.CounterVec("linq_pool_breaker_trips_total",
			"Breaker openings, by member endpoint.", "endpoint"),
		open: r.GaugeVec("linq_pool_breaker_open",
			"1 while the member's breaker is open.", "endpoint"),
		inflight: r.GaugeVec("linq_pool_inflight",
			"Calls currently executing on the member.", "endpoint"),
		depth: r.GaugeVec("linq_fleet_queue_depth",
			"Last daemon-reported queue depth per member endpoint.", "endpoint"),
		sampleErr: r.CounterVec("linq_fleet_sample_errors_total",
			"Failed health samples, by member endpoint.", "endpoint"),
		hedges: r.CounterVec("linq_fleet_hedges_total",
			"Hedged second attempts launched, by hedge endpoint.", "endpoint"),
		hedgeWins: r.CounterVec("linq_fleet_hedge_wins_total",
			"Hedged attempts whose result won, by hedge endpoint.", "endpoint"),
		saturated: r.Counter("linq_fleet_saturated_total",
			"Compiles refused by fleet-wide admission control."),
	}
}

// ErrEmptyPool is returned by Pool when no members are given.
var ErrEmptyPool = errors.New("tilt: Pool needs at least one backend")

// ErrFleetSaturated is returned by Compile under PoolWithAdmissionControl
// while every member reports a queue depth over the watermark (or is
// draining). Callers should back off and retry; the fleet supervisor
// treats it as the signal to scale up.
var ErrFleetSaturated = errors.New("tilt: fleet saturated: every member over the queue-depth watermark")

// Pool returns a fan-out backend over the members. Members must be safe
// for concurrent use (all backends in this package are). A pool with at
// least one member that exposes a live load report starts a background
// health sampler; call Close to stop it when retiring the pool.
func Pool(members []Backend, opts ...PoolOption) (*PoolBackend, error) {
	if len(members) == 0 {
		return nil, ErrEmptyPool
	}
	p := &PoolBackend{
		name:        fmt.Sprintf("pool(%d)", len(members)),
		failMax:     3,
		cooldown:    15 * time.Second,
		sampleEvery: 500 * time.Millisecond,
		mx:          newPoolInstruments(nil),
	}
	for i, b := range members {
		if b == nil {
			return nil, fmt.Errorf("tilt: Pool member %d is nil", i)
		}
		p.members = append(p.members, &poolMember{b: b})
	}
	for _, o := range opts {
		o(p)
	}
	if p.failMax < 1 {
		p.failMax = 1
	}
	if p.sampleEvery <= 0 {
		p.sampleEvery = 500 * time.Millisecond
	}
	if p.anyReporter() {
		ctx, cancel := context.WithCancel(context.Background())
		p.stop, p.stopped = cancel, make(chan struct{})
		go p.sampleLoop(ctx)
	}
	return p, nil
}

// anyReporter reports whether at least one member exposes a live health
// report — without one the sampler would have nothing to sample.
func (p *PoolBackend) anyReporter() bool {
	for _, m := range p.members {
		if _, ok := m.b.(healthReporter); ok {
			return true
		}
	}
	return false
}

// Close stops the background health sampler, if one is running, cancels
// its in-flight health fetches and returns once it has exited. The pool
// stays usable for routing afterwards (picks degrade to the client-side
// in-flight counters as samples go stale). Close is idempotent and safe to
// call concurrently.
func (p *PoolBackend) Close() error {
	if p.stop != nil {
		p.stop()
		<-p.stopped
	}
	return nil
}

// Name implements Backend.
func (p *PoolBackend) Name() string { return p.name }

// Members returns the member backends, in pool order.
func (p *PoolBackend) Members() []Backend {
	out := make([]Backend, len(p.members))
	for i, m := range p.members {
		out[i] = m.b
	}
	return out
}

// Healthy returns how many members currently have a closed (or half-open)
// breaker.
func (p *PoolBackend) Healthy() int {
	now := time.Now()
	n := 0
	for _, m := range p.members {
		m.mu.Lock()
		if m.openUntil.IsZero() || !now.Before(m.openUntil) {
			n++
		}
		m.mu.Unlock()
	}
	return n
}

// PoolMemberHealth is one member's live sample from PoolBackend.Health:
// local breaker/load state always, plus the daemon's own load report for
// members that expose one (RemoteBackend).
type PoolMemberHealth struct {
	// Name is the member backend's name; Healthy reports a closed (or
	// half-open) breaker; InFlight counts this pool's calls currently
	// executing on the member.
	Name     string `json:"name"`
	Healthy  bool   `json:"healthy"`
	InFlight int64  `json:"inflight"`
	// Remote is the daemon's live health/load sample, nil for members that
	// don't expose one. Error is the sample-fetch failure, if any ("" on
	// success) — a failed sample does not trip the breaker.
	Remote *RemoteHealth `json:"remote,omitempty"`
	Error  string        `json:"error,omitempty"`
}

// healthReporter is implemented by members that can sample their endpoint's
// live load (RemoteBackend.Health).
type healthReporter interface {
	Health(ctx context.Context) (RemoteHealth, error)
}

// poolTargeter is implemented by members that route to one daemon-side
// pool (RemoteBackend.Target), so load samples can be reduced to the pool
// the member actually submits to.
type poolTargeter interface {
	Target() string
}

// Health samples every member concurrently: breaker state and in-flight
// load locally, and — for members backed by a daemon — the endpoint's own
// queue-depth / cache / drain report. Each fetch is bounded by
// healthTimeout under the caller's context, so one hung daemon delays the
// sweep by at most that timeout instead of serializing the whole fleet
// behind it. This is the fleet
// supervisor's routing input; sampling never mutates breaker state.
func (p *PoolBackend) Health(ctx context.Context) []PoolMemberHealth {
	now := time.Now()
	out := make([]PoolMemberHealth, len(p.members))
	var wg sync.WaitGroup
	for i, m := range p.members {
		m.mu.Lock()
		healthy := m.openUntil.IsZero() || !now.Before(m.openUntil)
		m.mu.Unlock()
		out[i] = PoolMemberHealth{
			Name:     m.b.Name(),
			Healthy:  healthy,
			InFlight: m.inflight.Load(),
		}
		hr, ok := m.b.(healthReporter)
		if !ok {
			continue
		}
		wg.Add(1)
		go func(i int, hr healthReporter) {
			defer wg.Done()
			hctx, cancel := context.WithTimeout(ctx, healthTimeout)
			defer cancel()
			if rh, err := hr.Health(hctx); err != nil {
				out[i].Error = err.Error()
			} else {
				out[i].Remote = &rh
			}
		}(i, hr)
	}
	wg.Wait()
	return out
}

// sampleLoop is the background health sampler: one tick per sample period
// until Close cancels ctx. Each tick refreshes every reporting member's
// load sample; pick and admission control read the latest one.
func (p *PoolBackend) sampleLoop(ctx context.Context) {
	defer close(p.stopped)
	t := time.NewTicker(p.sampleEvery)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			p.sampleOnce(ctx)
		}
	}
}

// sampleOnce fetches every reporting member's health concurrently, each
// bounded by the per-member timeout, and stores the reduced load sample.
// A failed fetch keeps the previous sample (it goes stale on its own and
// the member degrades to in-flight routing) — sampling never trips
// breakers.
func (p *PoolBackend) sampleOnce(ctx context.Context) {
	var wg sync.WaitGroup
	for _, m := range p.members {
		hr, ok := m.b.(healthReporter)
		if !ok {
			continue
		}
		wg.Add(1)
		go func(m *poolMember, hr healthReporter) {
			defer wg.Done()
			hctx, cancel := context.WithTimeout(ctx, healthTimeout)
			defer cancel()
			rh, err := hr.Health(hctx)
			if err != nil {
				p.mx.sampleErr.With(m.b.Name()).Inc()
				return
			}
			target := ""
			if tg, ok := m.b.(poolTargeter); ok {
				target = tg.Target()
			}
			s := reduceHealth(rh, target)
			s.when = time.Now()
			m.mu.Lock()
			m.sample = s
			m.mu.Unlock()
			p.mx.depth.With(m.b.Name()).Set(float64(s.queued))
		}(m, hr)
	}
	wg.Wait()
}

// reduceHealth folds a daemon health report into one routing sample: the
// load of the pool the member targets when the report carries it, the sum
// over all pools otherwise (any draining pool marks the member draining —
// linqd drains whole-daemon).
func reduceHealth(h RemoteHealth, target string) loadSample {
	var s, all loadSample
	matched := false
	for _, l := range h.Load {
		all.queued += l.Queued
		all.running += l.Running
		all.draining = all.draining || l.Draining
		if target != "" && l.Backend == target {
			matched = true
			s.queued += l.Queued
			s.running += l.Running
			s.draining = s.draining || l.Draining
		}
	}
	if !matched {
		return all
	}
	// Drain state is daemon-wide even when depth is per-pool.
	s.draining = s.draining || all.draining
	return s
}

// sampleSnapshot returns the member's last load sample and whether it is
// still fresh (within four sample periods).
func (p *PoolBackend) sampleSnapshot(m *poolMember, now time.Time) (loadSample, bool) {
	m.mu.Lock()
	s := m.sample
	m.mu.Unlock()
	fresh := !s.when.IsZero() && now.Sub(s.when) <= 4*p.sampleEvery
	return s, fresh
}

// admit enforces fleet-wide admission control: refuse the Compile when
// every member's fresh sample is over the watermark (or draining). Members
// without a fresh sample count as available capacity — partial knowledge
// never refuses work.
func (p *PoolBackend) admit() error {
	if p.watermark <= 0 {
		return nil
	}
	now := time.Now()
	for _, m := range p.members {
		s, fresh := p.sampleSnapshot(m, now)
		if !fresh || (!s.draining && s.queued <= p.watermark) {
			return nil
		}
	}
	p.mx.saturated.Inc()
	return ErrFleetSaturated
}

// Compile implements Backend: pick a member and compile there, hedging the
// attempt onto the next-best member under PoolWithHedging. The returned
// artifact is a pool-owned wrapper that remembers its member, so Simulate
// lands on the same endpoint. The member's own artifact is never mutated —
// it may be a shared compile-cache entry handed to concurrent callers.
// Under PoolWithAdmissionControl a saturated fleet refuses the work with
// ErrFleetSaturated before any member is attempted.
func (p *PoolBackend) Compile(ctx context.Context, c *Circuit) (*Artifact, error) {
	if err := p.admit(); err != nil {
		return nil, err
	}
	primary := p.pick(nil)
	p.mx.picks.With(primary.b.Name()).Inc()
	var (
		a   *Artifact
		m   *poolMember
		err error
	)
	if backup := p.hedgePartner(primary); backup != nil {
		a, m, err = hedgedCall(ctx, p, primary, backup,
			func(ctx context.Context, m *poolMember) (*Artifact, error) {
				return m.b.Compile(ctx, c)
			})
	} else {
		m = primary
		a, err = poolCall(p, primary, func() (*Artifact, error) { return primary.b.Compile(ctx, c) })
	}
	if err != nil {
		return nil, err
	}
	return &Artifact{
		Backend: a.Backend,
		Circuit: a.Circuit,
		Native:  a.Native,
		Compile: a.Compile,
		Mapped:  a.Mapped,
		via:     m,
		inner:   a,
	}, nil
}

// Simulate implements Backend: route the artifact to the member that
// compiled it. Under PoolWithHedging a slow member is raced by the
// next-best one — the hedge compiles the artifact's circuit on its own
// member first (a no-op for remote members, whose compile is daemon-side
// anyway), so artifact affinity never leaks one member's artifact into
// another.
func (p *PoolBackend) Simulate(ctx context.Context, a *Artifact) (*Result, error) {
	if a == nil {
		return nil, fmt.Errorf("tilt: %s.Simulate: nil artifact", p.name)
	}
	primary := a.via
	if primary == nil || a.inner == nil || !p.owns(primary) {
		return nil, fmt.Errorf("tilt: %s.Simulate: artifact was not compiled by this pool", p.name)
	}
	if backup := p.hedgePartner(primary); backup != nil {
		res, _, err := hedgedCall(ctx, p, primary, backup,
			func(ctx context.Context, m *poolMember) (*Result, error) {
				if m == primary {
					return m.b.Simulate(ctx, a.inner)
				}
				art, err := m.b.Compile(ctx, a.Circuit)
				if err != nil {
					return nil, err
				}
				return m.b.Simulate(ctx, art)
			})
		return res, err
	}
	return poolCall(p, primary, func() (*Result, error) { return primary.b.Simulate(ctx, a.inner) })
}

// owns reports whether m is one of p's members.
func (p *PoolBackend) owns(m *poolMember) bool {
	for _, cand := range p.members {
		if cand == m {
			return true
		}
	}
	return false
}

// pick chooses the member to route the next call to, never returning
// exclude (pass nil to consider everyone): the lowest-scoring
// (pickWeighted) among the members whose breaker is closed (or whose
// cooldown elapsed — the half-open probe). With every breaker open, the
// least recently opened member is tried anyway so the pool degrades to
// retrying rather than failing fast forever.
func (p *PoolBackend) pick(exclude *poolMember) *poolMember {
	now := time.Now()
	avail := make([]*poolMember, 0, len(p.members))
	for _, m := range p.members {
		if m == exclude {
			continue
		}
		m.mu.Lock()
		ok := m.openUntil.IsZero() || !now.Before(m.openUntil)
		m.mu.Unlock()
		if ok {
			avail = append(avail, m)
		}
	}
	if len(avail) == 0 {
		// Total outage: probe the member whose breaker opened first.
		var oldest *poolMember
		for _, m := range p.members {
			if m == exclude {
				continue
			}
			if oldest == nil {
				oldest = m
				continue
			}
			m.mu.Lock()
			mu := m.openUntil
			m.mu.Unlock()
			oldest.mu.Lock()
			ou := oldest.openUntil
			oldest.mu.Unlock()
			if mu.Before(ou) {
				oldest = m
			}
		}
		return oldest
	}
	return p.pickWeighted(avail, now)
}

// pickWeighted scores every available member on what its daemon last
// reported — queue depth plus daemon-side running work — on top of the
// client-side in-flight count, and picks the lowest. Draining members are
// skipped while any non-draining candidate exists; members without a fresh
// sample score on in-flight alone, and ties go to the earlier member.
func (p *PoolBackend) pickWeighted(avail []*poolMember, now time.Time) *poolMember {
	var best *poolMember
	var bestScore int64
	bestDraining := true
	for _, m := range avail {
		s, fresh := p.sampleSnapshot(m, now)
		score := m.inflight.Load()
		draining := false
		if fresh {
			score += int64(s.queued) + int64(s.running)
			draining = s.draining
		}
		better := best == nil ||
			(bestDraining && !draining) ||
			(bestDraining == draining && score < bestScore)
		if better {
			best, bestScore, bestDraining = m, score, draining
		}
	}
	return best
}

// hedgePartner returns the member to hedge onto — the best pick excluding
// the primary — or nil when hedging is off or no alternative member has a
// workable breaker.
func (p *PoolBackend) hedgePartner(primary *poolMember) *poolMember {
	if !p.hedging || len(p.members) < 2 {
		return nil
	}
	now := time.Now()
	for _, m := range p.members {
		if m == primary {
			continue
		}
		m.mu.Lock()
		ok := m.openUntil.IsZero() || !now.Before(m.openUntil)
		m.mu.Unlock()
		if ok {
			return p.pick(primary)
		}
	}
	return nil
}

// pollBounded is implemented by members that expose their poll-backoff
// ceiling (RemoteBackend.MaxPollInterval) — the auto hedge delay.
type pollBounded interface {
	MaxPollInterval() time.Duration
}

// hedgeAfter resolves the effective hedge trigger for a primary member.
func (p *PoolBackend) hedgeAfter(primary *poolMember) time.Duration {
	if p.hedgeDelay > 0 {
		return p.hedgeDelay
	}
	if pb, ok := primary.b.(pollBounded); ok {
		if d := pb.MaxPollInterval(); d > 0 {
			return d
		}
	}
	return 50 * time.Millisecond
}

// hedgeOutcome is one attempt's result inside a hedged call.
type hedgeOutcome[T any] struct {
	m   *poolMember
	out T
	err error
}

// hedgedCall races the call on primary against a delayed second attempt on
// backup: the first success wins and the loser's context is cancelled. The
// hedge fires when the primary is slower than the hedge delay, or
// immediately when the primary fails outright. Each attempt runs through
// poolCall, so load accounting and breaker bookkeeping stay per-member —
// a draining primary opens only its own breaker, and a cancelled loser
// (context.Canceled) never counts as a fault. When both attempts fail the
// primary's error is returned. (A package function because Go methods
// cannot carry type parameters.)
func hedgedCall[T any](ctx context.Context, p *PoolBackend, primary, backup *poolMember,
	call func(context.Context, *poolMember) (T, error)) (T, *poolMember, error) {
	pctx, cancelPrimary := context.WithCancel(ctx)
	defer cancelPrimary()
	bctx, cancelBackup := context.WithCancel(ctx)
	defer cancelBackup()

	// Buffered for both attempts: a loser finishing after the winner
	// returns must never block forever on the send.
	results := make(chan hedgeOutcome[T], 2)
	attempt := func(ctx context.Context, m *poolMember) {
		out, err := poolCall(p, m, func() (T, error) { return call(ctx, m) })
		results <- hedgeOutcome[T]{m: m, out: out, err: err}
	}
	go attempt(pctx, primary)

	hedged := false
	launchHedge := func() {
		hedged = true
		p.mx.hedges.With(backup.b.Name()).Inc()
		go attempt(bctx, backup)
	}

	timer := time.NewTimer(p.hedgeAfter(primary))
	defer timer.Stop()

	var zero T
	var primaryErr error
	received := 0
	for {
		select {
		case <-ctx.Done():
			// The caller gave up: both attempts see the cancellation through
			// their derived contexts and unwind on their own.
			return zero, nil, ctx.Err()
		case <-timer.C:
			if !hedged {
				launchHedge()
			}
		case r := <-results:
			received++
			if r.err == nil {
				// First success wins; cancel the other attempt promptly.
				cancelPrimary()
				cancelBackup()
				if hedged && r.m == backup {
					p.mx.hedgeWins.With(backup.b.Name()).Inc()
				}
				return r.out, r.m, nil
			}
			if r.m == primary {
				primaryErr = r.err
			}
			if !hedged {
				// The primary failed before the hedge fired: try the backup
				// immediately rather than waiting out the delay.
				launchHedge()
				continue
			}
			if received == 2 {
				if primaryErr != nil {
					return zero, nil, primaryErr
				}
				return zero, nil, r.err
			}
		}
	}
}

// poolCall runs fn against the member with load accounting and breaker
// bookkeeping. (A package function because Go methods cannot carry type
// parameters.)
func poolCall[T any](p *PoolBackend, m *poolMember, fn func() (T, error)) (T, error) {
	m.inflight.Add(1)
	p.mx.inflight.With(m.b.Name()).Inc()
	// Deferred so a panicking member (recovered upstream by the runner)
	// cannot leave phantom in-flight load that skews picks.
	defer func() {
		m.inflight.Add(-1)
		p.mx.inflight.With(m.b.Name()).Dec()
	}()
	out, err := fn()
	p.observe(m, err)
	return out, err
}

// observe updates the member's breaker from one call outcome.
func (p *PoolBackend) observe(m *poolMember, err error) {
	if err == nil {
		m.mu.Lock()
		wasOpen := !m.openUntil.IsZero()
		m.fails = 0
		m.openUntil = time.Time{}
		m.mu.Unlock()
		if wasOpen {
			p.mx.open.With(m.b.Name()).Set(0)
		}
		return
	}
	drain, fault := classifyPoolError(err)
	if !drain && !fault {
		return // circuit-level or caller-cancelled: not the endpoint's fault
	}
	if fault {
		p.mx.failures.With(m.b.Name()).Inc()
	}
	m.mu.Lock()
	trip := drain // a draining daemon leaves rotation immediately
	if fault {
		m.fails++
		// openUntil is only non-zero between a trip and the next success,
		// so a fault there is a failed half-open probe: re-open on that
		// single probe instead of demanding failMax fresh failures.
		trip = trip || m.fails >= p.failMax || !m.openUntil.IsZero()
	}
	if trip {
		m.fails = 0
		m.openUntil = time.Now().Add(p.cooldown)
	}
	m.mu.Unlock()
	if trip {
		p.mx.trips.With(m.b.Name()).Inc()
		p.mx.open.With(m.b.Name()).Set(1)
	}
}

// classifyPoolError splits an error into the breaker-relevant categories:
// drain (the endpoint said it is shutting down — deliberate) and fault
// (transport failures and 5xx — the endpoint is unhealthy). Everything
// else — caller cancellation, 4xx circuit/validation errors — leaves the
// breaker alone.
func classifyPoolError(err error) (drain, fault bool) {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false, false
	}
	var re *RemoteError
	if errors.As(err, &re) {
		if re.ShuttingDown() {
			return true, false
		}
		return false, re.Temporary()
	}
	return false, false
}

// String renders the pool and its member names.
func (p *PoolBackend) String() string {
	names := make([]string, len(p.members))
	for i, m := range p.members {
		names[i] = m.b.Name()
	}
	return p.name + "[" + strings.Join(names, ", ") + "]"
}
