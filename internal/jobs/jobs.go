// Package jobs is the asynchronous job-execution service behind cmd/linqd:
// an in-memory manager that accepts compile+simulate work against named
// backends and runs it on bounded per-backend worker pools, layered on the
// repro/runner batch executor.
//
// Submit returns immediately with a job ID; callers poll Get for the
// lifecycle (queued → running → done/failed/cancelled) and the Result.
// Queued work is ordered by priority (then FIFO), bounded by an optional
// per-job TTL on queue wait, and deduplicated by circuit content: while an
// identical circuit (by Circuit.Fingerprint) is queued or running against
// the same backend, duplicate submissions attach to the in-flight execution
// and share its single compile+simulate — every subscriber receives the
// same Result. Completed jobs land in a bounded LRU result store
// (internal/lru), so the manager's memory use is capped no matter how much
// traffic it serves.
//
// Shutdown stops intake and drains: every accepted job still reaches a
// terminal state before Shutdown returns (or is cancelled when the drain
// context expires first).
//
// Every job state change — Submit, dispatch, completion, Cancel, TTL
// expiry and the jobs recovery rebuilds — goes through one transition
// function, moveLocked, which derives all of its side effects from the
// (from, to) pair: the journal record, the tenant counts and gauges, the
// Stats counters and metric families, the trace spans, the result store
// and waiters, and the event-bus event.
//
// With a write-ahead journal attached (WithJournal), New replays the
// journal: jobs that were queued at crash time re-queue, jobs that were in
// flight re-run (deduplicated by fingerprint as usual), and terminal
// results survive byte for byte. Every record is written under the
// manager's lock, so the log holds transitions in order, but none is
// fsynced there. Only the submission record is durable: Submit fsyncs
// through it after releasing the lock, by group commit, and a worker waits
// for its subscribers' submissions to be durable before it runs an
// execution. Started and terminal records are advisory: they survive
// kill -9 from the page cache and become durable with a later fsync, and
// one lost to power failure means the job runs again after a restart,
// deterministically, to the same result.
//
// With a tenant registry attached (WithTenants), submissions are owned by
// tenants: per-tenant queue quotas gate admission, per-tenant in-flight
// caps gate dispatch, and the priority heap schedules weighted-fair across
// tenants within a priority.
package jobs

import (
	"container/heap"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	tilt "repro"
	"repro/internal/journal"
	"repro/internal/lru"
	"repro/internal/metrics"
	"repro/internal/tenant"
	"repro/internal/tracing"
	"repro/runner"
)

// State is a job lifecycle state.
type State string

// The job lifecycle: Queued → Running → one of the three terminal states.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// stateNew and stateReplayed are the pseudo-states a job enters moveLocked
// from: a fresh submission, or one rebuilt from the journal. A replayed job
// is already on disk (the recovery checkpoint restates it) and was counted
// by the process that accepted it, so its admission books neither.
const (
	stateNew      State = ""
	stateReplayed State = "replayed"
)

// Terminal reports whether s is a terminal state.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Sentinel errors returned by the manager.
var (
	// ErrNotFound: the job ID is unknown — never submitted, or evicted
	// from the bounded result store.
	ErrNotFound = errors.New("jobs: job not found")
	// ErrUnknownBackend: the request names a backend no pool serves.
	ErrUnknownBackend = errors.New("jobs: unknown backend")
	// ErrShuttingDown: the manager is draining (Shutdown was called) and
	// no longer accepts work. Remote clients and pool breakers key on this
	// to tell a deliberate drain apart from an endpoint failure.
	ErrShuttingDown = errors.New("jobs: manager is shutting down; not accepting new jobs")
	// ErrTTLExpired: the job's TTL elapsed before a worker picked it up.
	ErrTTLExpired = errors.New("jobs: TTL expired before the job started")
	// ErrTerminal: Cancel was called on a job that already finished.
	ErrTerminal = errors.New("jobs: job already in a terminal state")
	// ErrQuotaExceeded: the tenant's queued-job quota is full; retry after
	// some of its jobs drain (HTTP 429).
	ErrQuotaExceeded = errors.New("jobs: tenant queue quota exceeded")
)

// Pool declares one backend worker pool.
type Pool struct {
	// Name is the backend name clients submit against (e.g. "TILT").
	Name string
	// Backend executes the pool's jobs. Backends must be safe for
	// concurrent use (the tilt backends are).
	Backend tilt.Backend
	// Workers bounds the pool's concurrent executions (<= 0: GOMAXPROCS).
	Workers int
}

// Request is one job submission.
type Request struct {
	// Name labels the job (free-form, may be empty).
	Name string
	// Backend selects the pool by name.
	Backend string
	// Circuit is the logical circuit to compile and simulate. The manager
	// holds a reference until the job finishes; callers must not mutate it.
	Circuit *tilt.Circuit
	// Intake, when set, replaces Circuit: the circuit with its
	// per-content work already done (see NewIntake). Submit builds one
	// from Circuit when it is nil.
	Intake *Intake
	// Priority orders the queue: higher runs earlier (weighted-fair, then
	// FIFO, within a priority). Zero is the default priority.
	Priority int
	// TTL bounds the queue wait: a job still queued TTL after submission
	// fails with ErrTTLExpired instead of running. Zero means no bound.
	TTL time.Duration
	// Tenant is the owning tenant's ID (empty for unauthenticated
	// deployments). It scopes quotas, weighted-fair scheduling, listing,
	// and the per-tenant metric labels.
	Tenant string
	// Parent, when valid, links the job's spans into a trace begun
	// elsewhere — typically the HTTP request span that carried the
	// client's traceparent header. Ignored without WithTracer.
	Parent tracing.SpanContext
}

// Intake is a circuit with the per-content work of a submission done
// once: its fingerprint, the dedup key, and its journal wire form, which is
// encoded on first use unless the submission's own bytes were already
// canonical, so a manager without a journal never pays for it. Submissions
// of the same content can share one Intake (linqhttp's intake cache does).
// An Intake is safe for concurrent use; like a submitted Circuit, its
// circuit must not be mutated.
type Intake struct {
	circuit     *tilt.Circuit
	fingerprint string

	wireOnce sync.Once
	wire     []byte
}

// NewIntake fingerprints c, which must not be nil. wire, when not nil,
// must be c's canonical wire form (the bytes c.AppendJSON writes, which
// circuit.DecodeJSON recognizes); the journal then writes it verbatim, so
// it must not be modified afterwards.
func NewIntake(c *tilt.Circuit, wire []byte) *Intake {
	return &Intake{circuit: c, fingerprint: c.Fingerprint(), wire: wire}
}

// Circuit returns the intake's circuit.
func (in *Intake) Circuit() *tilt.Circuit { return in.circuit }

// Fingerprint returns the circuit's Fingerprint, which keys dedup.
func (in *Intake) Fingerprint() string { return in.fingerprint }

// wireForm returns the circuit's canonical journal wire form, encoding it
// on the first call when the submission did not supply it.
func (in *Intake) wireForm() []byte {
	in.wireOnce.Do(func() {
		if in.wire == nil {
			in.wire = in.circuit.AppendJSON(nil)
		}
	})
	return in.wire
}

// Job is an immutable snapshot of one submission's lifecycle, returned by
// Get.
type Job struct {
	ID       string
	Name     string
	Backend  string
	Tenant   string
	State    State
	Priority int
	// Deduped reports that this submission attached to an in-flight
	// execution of an identical circuit instead of compiling its own.
	Deduped bool
	// Submitted/Started/Finished are the lifecycle timestamps (zero when
	// the phase has not happened).
	Submitted time.Time
	Started   time.Time
	Finished  time.Time
	// Result is the outcome (terminal done jobs only).
	Result *tilt.Result
	// Error is the failure message (terminal failed/cancelled jobs only).
	Error string
	// TraceID names the job's trace in the manager's tracer (empty without
	// WithTracer, and for snapshots restored from the journal — the trace
	// store is in-memory only). It lives on the Job, never inside Result,
	// so fingerprint-dedup'd submissions still share a byte-identical
	// Result payload.
	TraceID string
}

// jobState is the manager's mutable record of one submission; all fields
// are guarded by Manager.mu.
type jobState struct {
	id        string
	name      string
	backend   string
	tenant    string
	priority  int
	deduped   bool
	submitted time.Time
	deadline  time.Time // zero = no TTL
	state     State
	exec      *execution
	circuit   json.RawMessage // submission wire form, dropped once journaled
	pos       int64           // journal position of the submitted record (0: needs no sync)

	// span is the job's root span and queueSpan its queue-wait child (both
	// nil without WithTracer; every tracing call is nil-safe). traceID is
	// cached so snapshots survive the span ending.
	span      *tracing.Span
	queueSpan *tracing.Span
	traceID   string
}

// execution is one physical compile+simulate: the unit the pools queue and
// run. Duplicate submissions subscribe to one execution.
type execution struct {
	key     string // backend NUL fingerprint — the dedup index key
	pool    *pool
	circuit *tilt.Circuit
	name    string // first subscriber's name, for runner labels

	ctx    context.Context
	cancel context.CancelFunc

	subs     map[string]*jobState // by job ID
	priority int                  // max over subscribers, fixed FIFO seq below
	seq      uint64
	index    int // heap index, -1 once popped or removed
	// tenant is the first subscriber's tenant: the execution's owner for
	// weighted-fair scheduling and the in-flight cap. vtime is its
	// weighted-fair finish tag — within a priority the heap pops the
	// smallest vtime, so a weight-w tenant's executions advance the
	// virtual clock by 1/w each and it receives ~w times the slots of a
	// weight-1 tenant under contention.
	tenant string
	vtime  float64

	state   State // StateQueued or StateRunning
	started time.Time
}

// tenantState is the manager's per-tenant runtime: live job counts for
// quotas and gauges, and the weighted-fair virtual-time cursor.
type tenantState struct {
	queued       int     // jobs in StateQueued
	running      int     // jobs in StateRunning
	runningExecs int     // executions running owned by this tenant
	vtime        float64 // finish tag of the tenant's last queued execution
}

// pool is the runtime of one Pool declaration.
type pool struct {
	m       *Manager
	name    string
	backend tilt.Backend
	workers int
	q       execQueue
	running int        // executions currently executing on this pool
	vnow    float64    // weighted-fair virtual clock: vtime of the last pop
	cond    *sync.Cond // waits on Manager.mu for queue or shutdown activity
}

// Manager is the asynchronous job service. Create one with New; all
// methods are safe for concurrent use.
type Manager struct {
	mu       sync.Mutex
	pools    map[string]*pool
	jobs     map[string]*jobState // active (non-terminal) jobs
	inflight map[string]*execution
	store    *lru.Cache[string, Job] // terminal snapshots, bounded
	waiters  map[string][]chan Job   // Wait callers, by job ID
	tenants  map[string]*tenantState // lazily created per tenant ID
	seq      uint64
	closed   bool
	wg       sync.WaitGroup

	jnl        *journal.Journal // nil = in-memory only
	treg       *tenant.Registry // nil = no quotas, all weights 1
	tracer     *tracing.Tracer  // nil = tracing off
	runnerOpts []runner.Option
	mx         *instruments
	stats      Stats    // cumulative lifecycle counts, guarded by mu
	recovery   Recovery // journal-replay outcome, fixed after New

	// Event-bus state (guarded by mu): live subscriptions by ID and the
	// monotonically increasing event sequence number.
	eventSubs map[uint64]*eventSub
	eventSeq  uint64
	subSeq    uint64
}

// Event is one job state transition, as streamed to Subscribe channels
// (and, through linqd, to /v1/events SSE clients). Events for one job are
// delivered in lifecycle order; Seq orders events across jobs.
type Event struct {
	Seq     uint64    `json:"seq"`
	Time    time.Time `json:"time"`
	JobID   string    `json:"job"`
	Name    string    `json:"name,omitempty"`
	Backend string    `json:"backend"`
	Tenant  string    `json:"tenant,omitempty"`
	State   State     `json:"state"`
	Deduped bool      `json:"deduped,omitempty"`
	TraceID string    `json:"trace_id,omitempty"`
	Error   string    `json:"error,omitempty"`
}

// eventSub is one live Subscribe registration.
type eventSub struct {
	tenant string
	ch     chan Event
}

// Recovery summarizes what New rebuilt from the journal.
type Recovery struct {
	// Requeued jobs were queued at crash time and queue again. This
	// includes duplicates that attached to an already-running execution:
	// they never dispatched on their own, so they have no started record.
	Requeued int `json:"requeued"`
	// Rerun jobs were in flight at crash time (a started record survived);
	// their results were lost, so they queue again and re-execute.
	Rerun int `json:"rerun"`
	// Terminal jobs finished before the crash; their snapshots (results
	// included, byte for byte) went straight to the result store.
	Terminal int `json:"terminal"`
	// Expired jobs outlived their queue TTL during the outage and were
	// finalized as failed instead of re-queued.
	Expired int `json:"expired"`
	// Unrecoverable jobs could not be rebuilt (unparseable circuit, or a
	// backend pool this process no longer serves) and were finalized as
	// failed.
	Unrecoverable int `json:"unrecoverable"`
}

// Recovery returns the journal-replay summary (zero without a journal).
func (m *Manager) Recovery() Recovery { return m.recovery }

// Stats is a consistent snapshot of the manager's lifecycle counters: the
// cumulative totals plus the current queue and running depths (summed over
// the per-tenant counts).
type Stats struct {
	Submitted int64 `json:"submitted"`
	Deduped   int64 `json:"deduped"`
	Done      int64 `json:"done"`
	Failed    int64 `json:"failed"`
	Cancelled int64 `json:"cancelled"`
	Queued    int   `json:"queued"`
	Running   int   `json:"running"`
}

// Stats returns a snapshot of the lifecycle counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.stats
	for _, ts := range m.tenants {
		st.Queued += ts.queued
		st.Running += ts.running
	}
	return st
}

// Option configures a Manager.
type Option func(*managerConfig)

type managerConfig struct {
	storeSize int
	metrics   *metrics.Registry
	journal   *journal.Journal
	tenants   *tenant.Registry
	tracer    *tracing.Tracer
}

// WithTracer attaches a tracer: every submission gets a root span (linked
// under Request.Parent when the submission continues a client-side trace),
// a queue-wait child span, and — because the execution context carries the
// span — compile/simulate/per-pass child spans from the backend. Job
// snapshots expose the trace ID so callers can fetch the assembled trace
// from the tracer's store.
func WithTracer(t *tracing.Tracer) Option {
	return func(c *managerConfig) { c.tracer = t }
}

// WithJournal attaches a write-ahead journal. Each transition writes one
// record. Only the submission record is durable: it is fsynced before
// Submit returns, and before the job runs. Started and terminal records
// are advisory: they are not fsynced on their own, and losing one to power
// failure means the job re-runs after a restart, deterministically, to the
// same result. New replays the journal's surviving records — re-queueing
// queued jobs, re-running in-flight ones, restoring terminal snapshots —
// then checkpoints the survivors so the journal restarts compact. The
// manager owns the journal's write path from here on; the caller still
// closes it after Shutdown.
func WithJournal(j *journal.Journal) Option {
	return func(c *managerConfig) { c.journal = j }
}

// WithTenants attaches the tenant registry: per-tenant queued-job quotas
// gate Submit (ErrQuotaExceeded), per-tenant in-flight caps gate worker
// dispatch, and the registry's weights drive weighted-fair scheduling
// within each priority. Without it every job schedules at weight 1 with
// no quotas.
func WithTenants(r *tenant.Registry) Option {
	return func(c *managerConfig) { c.tenants = r }
}

// WithStoreSize bounds the completed-job result store to n entries
// (default 1024); the least recently fetched jobs are evicted first and
// read as ErrNotFound afterwards.
func WithStoreSize(n int) Option {
	return func(c *managerConfig) { c.storeSize = n }
}

// WithMetrics instruments the manager against the registry: submission,
// dedup, and completion counters, queue/running gauges, and queue-wait and
// run-time histograms, plus the runner's per-job latency families. Share
// the registry with the backends' tilt.WithMetrics for one scrapeable view.
// Without it the manager books into a private registry.
func WithMetrics(r *tilt.MetricsRegistry) Option {
	return func(c *managerConfig) { c.metrics = r }
}

// instruments holds the manager's pre-resolved metric handles. Every
// family carries the owning tenant ("anonymous" for unauthenticated
// submissions), so a scrape separates the fleet's tenants without a
// second registry.
type instruments struct {
	submitted *metrics.CounterVec   // linq_jobs_submitted_total{backend,tenant}
	deduped   *metrics.CounterVec   // linq_jobs_deduped_total{backend,tenant}
	finished  *metrics.CounterVec   // linq_jobs_finished_total{backend,state,tenant}
	expired   *metrics.CounterVec   // linq_jobs_ttl_expired_total{backend,tenant}
	queued    *metrics.GaugeVec     // linq_jobs_queued{backend,tenant}
	running   *metrics.GaugeVec     // linq_jobs_running{backend,tenant}
	queueSec  *metrics.HistogramVec // linq_job_queue_seconds{backend,tenant}
	runSec    *metrics.HistogramVec // linq_job_run_seconds{backend,tenant}
	rejected  *metrics.CounterVec   // linq_tenant_rejected_total{tenant,reason}
	replayed  *metrics.CounterVec   // linq_jobs_replayed_total{backend,outcome}

	// Live telemetry-plane families: the physical queue depth each pool
	// sees (executions, after dedup), per-tenant in-flight executions, and
	// the event bus's delivery counters.
	queueDepth  *metrics.GaugeVec // linq_jobs_queue_depth{backend}
	inflight    *metrics.GaugeVec // linq_jobs_inflight{tenant}
	evPublished *metrics.Counter  // linq_events_published_total
	evDropped   *metrics.Counter  // linq_events_dropped_total
	evSubs      *metrics.Gauge    // linq_events_subscribers
}

func newInstruments(r *metrics.Registry) *instruments {
	return &instruments{
		submitted: r.CounterVec("linq_jobs_submitted_total",
			"Jobs accepted by Submit.", "backend", "tenant"),
		deduped: r.CounterVec("linq_jobs_deduped_total",
			"Submissions that attached to an in-flight identical circuit.", "backend", "tenant"),
		finished: r.CounterVec("linq_jobs_finished_total",
			"Jobs reaching a terminal state, by outcome.", "backend", "state", "tenant"),
		expired: r.CounterVec("linq_jobs_ttl_expired_total",
			"Jobs that timed out in the queue.", "backend", "tenant"),
		queued: r.GaugeVec("linq_jobs_queued",
			"Jobs currently waiting in the queue.", "backend", "tenant"),
		running: r.GaugeVec("linq_jobs_running",
			"Jobs currently executing.", "backend", "tenant"),
		queueSec: r.HistogramVec("linq_job_queue_seconds",
			"Queue wait from submission to execution start.", nil, "backend", "tenant"),
		runSec: r.HistogramVec("linq_job_run_seconds",
			"Execution time from start to terminal state.", nil, "backend", "tenant"),
		rejected: r.CounterVec("linq_tenant_rejected_total",
			"Submissions rejected by tenant policy, by reason.", "tenant", "reason"),
		replayed: r.CounterVec("linq_jobs_replayed_total",
			"Jobs rebuilt from the journal at startup, by outcome.", "backend", "outcome"),
		queueDepth: r.GaugeVec("linq_jobs_queue_depth",
			"Executions waiting in the pool queue (after dedup).", "backend"),
		inflight: r.GaugeVec("linq_jobs_inflight",
			"Executions currently running, by owning tenant.", "tenant"),
		evPublished: r.Counter("linq_events_published_total",
			"Job-transition events delivered to subscribers."),
		evDropped: r.Counter("linq_events_dropped_total",
			"Job-transition events dropped because a subscriber's buffer was full."),
		evSubs: r.Gauge("linq_events_subscribers",
			"Live event-bus subscriptions."),
	}
}

// New starts a manager serving the given pools and their workers.
func New(pools []Pool, opts ...Option) (*Manager, error) {
	cfg := managerConfig{storeSize: 1024}
	for _, o := range opts {
		o(&cfg)
	}
	if len(pools) == 0 {
		return nil, fmt.Errorf("jobs: no pools configured")
	}
	if cfg.storeSize < 1 {
		return nil, fmt.Errorf("jobs: store size %d < 1", cfg.storeSize)
	}
	m := &Manager{
		pools:    make(map[string]*pool, len(pools)),
		jobs:     make(map[string]*jobState),
		inflight: make(map[string]*execution),
		store:    lru.New[string, Job](cfg.storeSize),
		waiters:  make(map[string][]chan Job),
		tenants:  make(map[string]*tenantState),
		jnl:      cfg.journal,
		treg:     cfg.tenants,
		tracer:   cfg.tracer,

		eventSubs: make(map[uint64]*eventSub),
	}
	reg := cfg.metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	m.mx = newInstruments(reg)
	m.runnerOpts = []runner.Option{runner.WithWorkers(1), runner.WithMetrics(reg)}
	for _, pc := range pools {
		if pc.Name == "" || pc.Backend == nil {
			return nil, fmt.Errorf("jobs: pool %q needs a name and a backend", pc.Name)
		}
		if _, dup := m.pools[pc.Name]; dup {
			return nil, fmt.Errorf("jobs: duplicate pool %q", pc.Name)
		}
		workers := pc.Workers
		if workers < 1 {
			workers = runtime.GOMAXPROCS(0)
		}
		p := &pool{m: m, name: pc.Name, backend: pc.Backend, workers: workers}
		p.cond = sync.NewCond(&m.mu)
		m.pools[pc.Name] = p
	}
	if m.jnl != nil {
		// Replay before any worker starts: recovery rebuilds the queue and
		// result store single-threaded, then checkpoints the survivors so
		// the journal restarts compact.
		if err := m.recover(); err != nil {
			return nil, err
		}
	}
	for _, p := range m.pools {
		for w := 0; w < p.workers; w++ {
			m.wg.Add(1)
			go p.worker()
		}
	}
	return m, nil
}

// replayedJob is one job's state folded out of the journal: the submission
// identity plus the last lifecycle op seen for it.
type replayedJob struct {
	rec     journal.Record  // identity fields from the submitted record
	running bool            // an OpStarted followed the submission
	term    *journal.Record // terminal record, nil while live
}

// recover rebuilds the manager from the journal: terminal jobs go straight
// to the result store (results byte for byte), jobs queued or in flight at
// crash time re-queue (in-flight results were lost, so they re-run), and
// the surviving state is checkpointed so the journal restarts compact.
// Runs inside New, before any worker goroutine exists.
func (m *Manager) recover() error {
	byID := make(map[string]*replayedJob)
	var order []string // first-seen order, preserved for re-queueing
	err := m.jnl.Replay(func(rec journal.Record) error {
		switch rec.Op {
		case journal.OpSubmitted:
			if prev, ok := byID[rec.ID]; ok {
				// Same ID submitted again (possible only via a crash during
				// checkpoint rewriting): the later record restates the job.
				prev.rec = rec
				prev.running = false
				prev.term = nil
				break
			}
			byID[rec.ID] = &replayedJob{rec: rec}
			order = append(order, rec.ID)
		case journal.OpStarted:
			if j, ok := byID[rec.ID]; ok && j.term == nil {
				j.running = true
			}
		case journal.OpFinalized, journal.OpCancelled:
			r := rec
			if j, ok := byID[rec.ID]; ok {
				j.term = &r
				break
			}
			// Terminal record without its submission: the submitted record's
			// segment was compacted away (or this is a checkpointed
			// snapshot). Terminal records carry full identity, so the job is
			// still whole.
			byID[rec.ID] = &replayedJob{rec: r, term: &r}
			order = append(order, rec.ID)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("jobs: journal replay: %w", err)
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	now := time.Now()
	var checkpoint []journal.Record
	var maxSeq uint64
	for _, id := range order {
		j := byID[id]
		var seq uint64
		if _, err := fmt.Sscanf(id, "j-%08d", &seq); err == nil && seq > maxSeq {
			maxSeq = seq
		}
		if j.term != nil {
			m.store.Add(id, jobFromRecord(*j.term))
			m.recovery.Terminal++
			m.mx.replayed.With(j.term.Backend, "terminal").Inc() //lint:lockorder-exempt Manager.mu is the outer lock; metrics family.mu is a leaf never held across jobs calls
			checkpoint = append(checkpoint, *j.term)
			continue
		}
		checkpoint = append(checkpoint, m.requeueLocked(j, seq, now)) //lint:lockorder-exempt Manager.mu is the outer lock over the journal, metrics and tracing locks, which never call back into jobs
	}
	if maxSeq > m.seq {
		m.seq = maxSeq
	}
	if err := m.jnl.Checkpoint(checkpoint); err != nil {
		return fmt.Errorf("jobs: journal checkpoint: %w", err)
	}
	return nil
}

// jobFromRecord rebuilds a finished job's snapshot from its terminal
// journal record, result included byte for byte.
func jobFromRecord(rec journal.Record) Job {
	snap := Job{
		ID:        rec.ID,
		Name:      rec.Name,
		Backend:   rec.Backend,
		Tenant:    rec.Tenant,
		State:     State(rec.State),
		Priority:  rec.Priority,
		Deduped:   rec.Deduped,
		Submitted: rec.Submitted,
		Finished:  rec.Finished,
		Error:     rec.Error,
	}
	if !snap.State.Terminal() {
		snap.State = StateFailed // a terminal op always carries a terminal state; guard anyway
	}
	if len(rec.Result) > 0 {
		var res tilt.Result
		if err := json.Unmarshal(rec.Result, &res); err == nil {
			snap.Result = &res
		} else {
			snap.State = StateFailed
			snap.Error = fmt.Sprintf("jobs: journaled result unreadable: %v", err)
		}
	}
	return snap
}

// requeueLocked re-admits a job that was live at crash time and returns the
// checkpoint record restating it. Jobs whose TTL lapsed during the outage
// expire; jobs this process can no longer rebuild (unparseable circuit,
// backend without a pool) finalize as failed.
func (m *Manager) requeueLocked(r *replayedJob, seq uint64, now time.Time) journal.Record {
	rec := r.rec
	j := &jobState{
		id: rec.ID, name: rec.Name, backend: rec.Backend, tenant: rec.Tenant,
		priority: rec.Priority, deduped: rec.Deduped, submitted: rec.Submitted,
		deadline: rec.Deadline, state: stateReplayed,
	}
	fail := func(outcome, errMsg string) journal.Record {
		m.mx.replayed.With(rec.Backend, outcome).Inc()
		m.moveLocked(j, StateFailed, now, nil, nil, errMsg)
		return j.record(journal.OpFinalized, now, nil, errMsg)
	}
	if r.running {
		// The in-flight run's progress is gone; it re-queues. Its TTL was
		// already satisfied when it first started, so none applies now.
		j.deadline = time.Time{}
	}
	if j.expired(now) {
		m.recovery.Expired++
		return fail("expired", ErrTTLExpired.Error())
	}
	p, ok := m.pools[rec.Backend]
	if !ok {
		m.recovery.Unrecoverable++
		return fail("unrecoverable", fmt.Sprintf("jobs: recovery: no pool serves backend %q", rec.Backend))
	}
	var circ tilt.Circuit
	if len(rec.Circuit) == 0 {
		m.recovery.Unrecoverable++
		return fail("unrecoverable", "jobs: recovery: submission record has no circuit")
	}
	if err := circ.UnmarshalJSON(rec.Circuit); err != nil {
		m.recovery.Unrecoverable++
		return fail("unrecoverable", fmt.Sprintf("jobs: recovery: circuit unreadable: %v", err))
	}

	outcome := "requeued"
	if r.running {
		outcome = "rerun"
		m.recovery.Rerun++
	} else {
		m.recovery.Requeued++
	}
	m.mx.replayed.With(rec.Backend, outcome).Inc()
	if seq > m.seq {
		m.seq = seq // attachLocked stamps the execution with m.seq
	}
	m.admitLocked(j, p, rec.Backend+"\x00"+circ.Fingerprint(), &circ)
	// The checkpoint restates the job as freshly submitted; rec already
	// holds the identity and circuit, so reuse it (Op is already
	// OpSubmitted).
	rec.Op = journal.OpSubmitted
	return rec
}

// Backends returns the configured pool names (sorted by the caller if
// order matters).
func (m *Manager) Backends() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.pools))
	for name := range m.pools {
		names = append(names, name)
	}
	return names
}

// Submit accepts one job and returns its ID. The job runs asynchronously;
// poll Get for progress and the result. With a journal attached, the
// submission record is on disk (fsynced) before Submit returns — a
// returned ID is a promise that survives kill -9 and power loss. The fsync
// runs after the manager's lock is released, and concurrent submissions
// share one. If it fails, Submit returns the error and the job is
// withdrawn: cancelled before it runs, unless it already finished as a
// duplicate of an execution that was running when it was submitted. A
// failed fsync is sticky (journal.SyncTo): every submission whose record it
// held gets the error, whether its own Submit or a worker ran the fsync, and
// every later one is refused until the journal is reopened.
func (m *Manager) Submit(req Request) (string, error) {
	in := req.Intake
	if in == nil {
		if req.Circuit == nil {
			return "", fmt.Errorf("jobs: nil circuit")
		}
		// Hash (and, for journaled managers, marshal) outside the lock:
		// fingerprints and wire forms of wide circuits aren't free.
		in = NewIntake(req.Circuit, nil)
	}
	var circJSON json.RawMessage
	if m.jnl != nil {
		circJSON = in.wireForm()
	}

	m.mu.Lock()
	j, err := m.submitLocked(req, in, circJSON)
	m.mu.Unlock()
	if err != nil {
		return "", err
	}
	if err := m.syncTo(j.pos); err != nil {
		m.mu.Lock()
		if !j.state.Terminal() {
			m.withdrawLocked(j, err)
		}
		m.mu.Unlock()
		return "", fmt.Errorf("jobs: journal submit: %w", err)
	}
	return j.id, nil
}

// submitLocked admits one submission: it checks intake and the tenant's
// quota, then journals the submitted record (written, not yet fsynced) and
// queues the job.
func (m *Manager) submitLocked(req Request, in *Intake, circJSON json.RawMessage) (*jobState, error) {
	if m.closed {
		return nil, ErrShuttingDown
	}
	p, ok := m.pools[req.Backend]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownBackend, req.Backend)
	}
	if m.treg != nil && req.Tenant != "" {
		if t, known := m.treg.Lookup(req.Tenant); known && t.MaxQueued > 0 {
			if ts := m.tenants[req.Tenant]; ts != nil && ts.queued >= t.MaxQueued {
				m.mx.rejected.With(tenant.Label(req.Tenant), "queued_quota").Inc()
				return nil, fmt.Errorf("%w: tenant %q has %d jobs queued (max %d)",
					ErrQuotaExceeded, req.Tenant, ts.queued, t.MaxQueued)
			}
		}
	}

	m.seq++
	j := &jobState{
		id:        fmt.Sprintf("j-%08d", m.seq),
		name:      req.Name,
		backend:   req.Backend,
		tenant:    req.Tenant,
		priority:  req.Priority,
		submitted: time.Now(),
		circuit:   circJSON,
	}
	if req.TTL > 0 {
		j.deadline = j.submitted.Add(req.TTL)
	}
	if m.tracer != nil {
		// StartRemote links under the caller's span (the HTTP request span
		// carrying the client's traceparent) or roots a fresh trace when
		// the submission arrived without one.
		j.span = m.tracer.StartRemote("job", req.Parent)
		j.span.SetAttr("job_id", j.id)
		j.span.SetAttr("backend", j.backend)
		j.span.SetAttr("tenant", tenant.Label(j.tenant))
		j.traceID = j.span.Context().TraceID
		j.queueSpan = j.span.StartChild("queue-wait")
	}
	if err := m.admitLocked(j, p, req.Backend+"\x00"+in.fingerprint, in.circuit); err != nil {
		return nil, fmt.Errorf("jobs: journal submit: %w", err)
	}
	return j, nil
}

// syncTo returns once the journal is durable through pos (at once without
// a journal, or when pos is already durable). Callers must not hold m.mu.
func (m *Manager) syncTo(pos int64) error {
	if m.jnl == nil {
		return nil
	}
	return m.jnl.SyncTo(pos)
}

// withdrawLocked cancels a live job whose submitted record could not be
// made durable: it leaves the queue and its execution and never receives
// a result, and the caller that submitted it gets the error instead of its
// ID.
func (m *Manager) withdrawLocked(j *jobState, err error) {
	m.moveLocked(j, StateCancelled, time.Now(), nil, nil, "jobs: journal submit: "+err.Error())
}

// admitLocked moves a new or replayed job into the live set and subscribes
// it to its execution: the identical circuit already queued or running here
// (dedup: every subscriber shares one compile+simulate), or a fresh
// execution queued with its weighted-fair tag. A duplicate of a running
// execution enters Running with its TTL satisfied. The transition writes
// its journal record before anything changes, so a failed write admits
// nothing.
func (m *Manager) admitLocked(j *jobState, p *pool, key string, circ *tilt.Circuit) error {
	e, live := m.inflight[key]
	to := StateQueued
	if live {
		j.deduped = true
		if e.state == StateRunning {
			to, j.deadline = StateRunning, time.Time{}
		}
	}
	if err := m.moveLocked(j, to, j.submitted, nil, nil, ""); err != nil {
		return err
	}
	switch {
	case !live:
		base := context.Background()
		if j.span != nil {
			// The execution context carries the first subscriber's span, so
			// the backend's compile/simulate/per-pass child spans land in
			// that job's trace. Later dedup subscribers keep their own
			// (span-less) traces; the shared work is attributed once.
			base = tracing.ContextWithSpan(base, j.span)
		}
		ctx, cancel := context.WithCancel(base)
		e = &execution{
			key:      key,
			pool:     p,
			circuit:  circ,
			name:     j.name,
			ctx:      ctx,
			cancel:   cancel,
			subs:     make(map[string]*jobState, 1),
			priority: j.priority,
			seq:      m.seq,
			state:    StateQueued,
			tenant:   j.tenant,
			vtime:    m.vtagLocked(p, j.tenant),
		}
		m.inflight[key] = e
		heap.Push(&p.q, e)
		m.gaugeQueueDepthLocked(p)
		p.cond.Signal()
	case e.state == StateQueued && j.priority > e.priority:
		e.priority = j.priority
		heap.Fix(&p.q, e.index)
	}
	j.exec = e
	e.subs[j.id] = j
	return nil
}

// gaugeQueueDepthLocked re-samples the pool's physical queue depth gauge.
func (m *Manager) gaugeQueueDepthLocked(p *pool) {
	m.mx.queueDepth.With(p.name).Set(float64(p.q.Len()))
}

// gaugeInflightLocked re-samples the tenant's in-flight executions gauge.
func (m *Manager) gaugeInflightLocked(tenantID string) {
	m.mx.inflight.With(tenant.Label(tenantID)).Set(float64(m.tstateLocked(tenantID).runningExecs))
}

// tstateLocked returns the tenant's runtime state, creating it lazily.
func (m *Manager) tstateLocked(id string) *tenantState {
	ts := m.tenants[id]
	if ts == nil {
		ts = &tenantState{}
		m.tenants[id] = ts
	}
	return ts
}

// vtagLocked computes the weighted-fair finish tag for a new execution of
// the tenant on pool p: virtual start (the later of the pool's clock and
// the tenant's last tag) plus 1/weight.
func (m *Manager) vtagLocked(p *pool, tenantID string) float64 {
	ts := m.tstateLocked(tenantID)
	w := m.treg.Weight(tenantID)
	if w < 1 {
		w = 1
	}
	start := p.vnow
	if ts.vtime > start {
		start = ts.vtime
	}
	ts.vtime = start + 1/float64(w)
	return ts.vtime
}

// Get returns a snapshot of the job. Unknown IDs — including jobs evicted
// from the bounded result store — return ErrNotFound.
func (m *Manager) Get(id string) (Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if j, ok := m.liveLocked(id); ok {
		return m.snapshotLocked(j), nil
	}
	if snap, ok := m.store.Get(id); ok {
		return snap, nil
	}
	return Job{}, ErrNotFound
}

// List returns snapshots of the tenant's jobs — live ones plus terminal
// snapshots still in the bounded result store — newest first by ID. The
// empty tenant ID lists unauthenticated submissions.
func (m *Manager) List(tenantID string) []Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Job, 0, 16)
	for _, j := range m.jobs {
		if j.tenant == tenantID {
			out = append(out, m.snapshotLocked(j))
		}
	}
	m.store.Each(func(_ string, snap Job) bool {
		if snap.Tenant == tenantID {
			out = append(out, snap)
		}
		return true
	})
	sort.Slice(out, func(i, k int) bool { return out[i].ID > out[k].ID })
	return out
}

// Wait blocks until the job reaches a terminal state and returns its final
// snapshot — the push-style alternative to polling Get, used by linqd's
// blocking ?wait= result fetch. A job already terminal returns immediately;
// an unknown ID returns ErrNotFound; when ctx expires first, Wait returns
// ctx.Err() (poll Get for the state at that moment).
func (m *Manager) Wait(ctx context.Context, id string) (Job, error) {
	m.mu.Lock()
	if _, live := m.liveLocked(id); live {
		ch := make(chan Job, 1)
		m.waiters[id] = append(m.waiters[id], ch)
		m.mu.Unlock()
		select {
		case snap := <-ch:
			return snap, nil
		case <-ctx.Done():
			m.mu.Lock()
			chs := m.waiters[id]
			for i, c := range chs {
				if c == ch {
					m.waiters[id] = append(chs[:i], chs[i+1:]...)
					break
				}
			}
			if len(m.waiters[id]) == 0 {
				delete(m.waiters, id)
			}
			m.mu.Unlock()
			// The job may have finished while we raced ctx: prefer the
			// snapshot if the transition already delivered it.
			select {
			case snap := <-ch:
				return snap, nil
			default:
			}
			return Job{}, ctx.Err()
		}
	}
	if snap, ok := m.store.Get(id); ok {
		m.mu.Unlock()
		return snap, nil
	}
	m.mu.Unlock()
	return Job{}, ErrNotFound
}

// liveLocked returns the active job with the given ID. A queued job past
// its TTL expires here first (lazy expiry: it reads as failed before a
// worker would prune it at pop time) and reports not live.
func (m *Manager) liveLocked(id string) (*jobState, bool) {
	j, ok := m.jobs[id]
	if now := time.Now(); ok && j.state == StateQueued && j.expired(now) {
		m.moveLocked(j, StateFailed, now, nil, nil, ErrTTLExpired.Error())
		return nil, false
	}
	return j, ok
}

// expired reports whether the job's TTL deadline has passed.
func (j *jobState) expired(now time.Time) bool {
	return !j.deadline.IsZero() && now.After(j.deadline)
}

// Subscribe registers a job-transition event stream scoped to one tenant:
// the channel receives every Event whose job the tenant owns (the empty
// tenant ID subscribes to unauthenticated submissions, which is everything
// in a deployment without a tenant registry). buf bounds the channel
// (<= 0: 64); when a consumer falls behind, events are dropped rather than
// blocking the manager — SSE clients re-sync from Get. The returned cancel
// func unregisters the subscription (idempotent); the channel is never
// closed, so consumers select against their own context.
func (m *Manager) Subscribe(tenantID string, buf int) (<-chan Event, func()) {
	if buf <= 0 {
		buf = 64
	}
	ch := make(chan Event, buf)
	m.mu.Lock()
	m.subSeq++
	id := m.subSeq
	m.eventSubs[id] = &eventSub{tenant: tenantID, ch: ch}
	m.mx.evSubs.Set(float64(len(m.eventSubs)))
	m.mu.Unlock()
	cancel := func() {
		m.mu.Lock()
		if _, live := m.eventSubs[id]; live {
			delete(m.eventSubs, id)
			m.mx.evSubs.Set(float64(len(m.eventSubs)))
		}
		m.mu.Unlock()
	}
	return ch, cancel
}

// emitLocked fans the job's transition into its current state out to the
// matching subscribers. The sends are non-blocking (a full subscriber
// drops the event and books linq_events_dropped_total), so a stalled SSE
// client can never wedge the scheduler.
func (m *Manager) emitLocked(j *jobState, errMsg string) {
	if len(m.eventSubs) == 0 {
		return
	}
	m.eventSeq++
	ev := Event{
		Seq:     m.eventSeq,
		Time:    time.Now(),
		JobID:   j.id,
		Name:    j.name,
		Backend: j.backend,
		Tenant:  j.tenant,
		State:   j.state,
		Deduped: j.deduped,
		TraceID: j.traceID,
		Error:   errMsg,
	}
	for _, s := range m.eventSubs {
		if s.tenant != j.tenant {
			continue
		}
		select {
		case s.ch <- ev:
			m.mx.evPublished.Inc()
		default:
			m.mx.evDropped.Inc()
		}
	}
}

// PoolLoad is a live load sample of one backend pool — the routing signal
// /v1/backends exposes for Pool members and fleet supervisors: prefer the
// member with the shallowest queue and free workers, avoid draining ones.
type PoolLoad struct {
	// Backend is the pool's name; Workers its concurrency bound.
	Backend string `json:"backend"`
	Workers int    `json:"workers"`
	// Queued and Running count executions (deduplicated physical work, not
	// subscriber jobs) waiting in the queue and on workers right now.
	Queued  int `json:"queued"`
	Running int `json:"running"`
	// CacheHitRate is the backend's compile-cache hit rate in [0, 1]
	// (-1 when the backend has no cache or has served no lookups yet).
	CacheHitRate float64 `json:"cache_hit_rate"`
	// Draining reports that the manager stopped intake (Shutdown began).
	Draining bool `json:"draining"`
}

// compileCached is implemented by backends with an inspectable compile
// cache (tilt.TILTBackend).
type compileCached interface {
	CacheStats() (tilt.CacheStats, bool)
}

// PoolLoads samples every pool's live load, sorted by backend name.
func (m *Manager) PoolLoads() []PoolLoad {
	m.mu.Lock()
	out := make([]PoolLoad, 0, len(m.pools))
	for _, p := range m.pools {
		pl := PoolLoad{
			Backend:      p.name,
			Workers:      p.workers,
			Queued:       p.q.Len(),
			Running:      p.running,
			CacheHitRate: -1,
			Draining:     m.closed,
		}
		if cc, ok := p.backend.(compileCached); ok {
			if st, live := cc.CacheStats(); live && st.Hits+st.Misses > 0 {
				pl.CacheHitRate = float64(st.Hits) / float64(st.Hits+st.Misses)
			}
		}
		out = append(out, pl)
	}
	m.mu.Unlock()
	sort.Slice(out, func(i, k int) bool { return out[i].Backend < out[k].Backend })
	return out
}

// Cancel cancels one submission. A queued job is withdrawn; a running
// job's execution is interrupted through its context unless other
// submissions still subscribe to it (they keep it alive and keep their
// results). Cancelling a finished job returns ErrTerminal; an unknown ID
// returns ErrNotFound.
func (m *Manager) Cancel(id string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		if _, done := m.store.Get(id); done {
			return ErrTerminal
		}
		return ErrNotFound
	}
	m.moveLocked(j, StateCancelled, time.Now(), nil, nil, context.Canceled.Error())
	return nil
}

// Shutdown stops intake and drains: queued and running jobs keep executing
// until every accepted job reaches a terminal state. If ctx expires first,
// the remaining executions are cancelled (their jobs finish as cancelled)
// and Shutdown returns ctx.Err() once the workers exit.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	m.closed = true
	for _, p := range m.pools {
		p.cond.Broadcast()
	}
	m.mu.Unlock()

	done := make(chan struct{})
	go func() {
		// Released when the workers exit: the ctx arm below cancels every
		// inflight job precisely so this Wait terminates.
		m.wg.Wait() //lint:goroutineleak-exempt workers are counted on m.wg and the ctx path cancels inflight jobs so Wait returns
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		m.mu.Lock()
		for _, e := range m.inflight {
			e.cancel()
		}
		m.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// snapshotLocked renders the job as a public snapshot. Its execution's
// start time stays zero until dispatch turns every subscriber Running.
func (m *Manager) snapshotLocked(j *jobState) Job {
	snap := Job{
		ID:        j.id,
		Name:      j.name,
		Backend:   j.backend,
		Tenant:    j.tenant,
		State:     j.state,
		Priority:  j.priority,
		Deduped:   j.deduped,
		Submitted: j.submitted,
		TraceID:   j.traceID,
	}
	if j.exec != nil {
		snap.Started = j.exec.started
	}
	return snap
}

// moveLocked is the one job state transition: admission (from stateNew or
// stateReplayed), dispatch (Queued → Running), and the terminal moves of
// completion, Cancel and TTL expiry. From the (from, to) pair it derives
// the journal record, the active set and tenant counts with their gauges,
// the Stats counters, metrics and histograms, the spans, the terminal
// bookkeeping (finishLocked) and the event. Records are written here, in
// transition order, and never fsynced: the lock is held. Only the
// submission record is durable: its write error returns before anything
// changes, and its position is kept for Submit and the worker to fsync
// through once they have released the lock. Started and terminal records
// are advisory, so every other transition returns nil. res and wire are a
// completion's Result and the wire form its terminal record journals, nil
// for every other transition.
func (m *Manager) moveLocked(j *jobState, to State, at time.Time, res *tilt.Result, wire json.RawMessage, errMsg string) error {
	from := j.state
	j.state = to // a new job is not yet reachable, so this undoes nothing on error
	var op journal.Op
	switch {
	case m.jnl == nil, from == stateReplayed:
		// No journal, or recovery's checkpoint restates the job.
	case from == stateNew:
		op = journal.OpSubmitted
	case to == StateRunning:
		op = journal.OpStarted
	case to == StateCancelled:
		op = journal.OpCancelled
	default:
		op = journal.OpFinalized
	}
	if op != "" {
		// Only the submission's write error matters: a lost started or
		// terminal record just means the job re-runs after a restart.
		pos, err := m.jnl.Write(j.record(op, at, wire, errMsg))
		if op == journal.OpSubmitted {
			if err != nil {
				return err
			}
			j.pos = pos
		}
		j.circuit = nil
	}

	ts := m.tstateLocked(j.tenant)
	tl := tenant.Label(j.tenant)
	switch from {
	case stateNew:
		m.stats.Submitted++
		m.mx.submitted.With(j.backend, tl).Inc()
		if j.deduped {
			m.stats.Deduped++
			m.mx.deduped.With(j.backend, tl).Inc()
			j.span.SetAttr("deduped", "true")
		}
		m.jobs[j.id] = j
	case stateReplayed:
		m.jobs[j.id] = j
	case StateQueued:
		ts.queued--
		m.mx.queued.With(j.backend, tl).Dec()
	case StateRunning:
		ts.running--
		m.mx.running.With(j.backend, tl).Dec()
		m.mx.runSec.With(j.backend, tl).Observe(at.Sub(j.exec.started).Seconds())
	}
	switch to {
	case StateQueued:
		ts.queued++
		m.mx.queued.With(j.backend, tl).Inc()
	case StateRunning:
		ts.running++
		m.mx.running.With(j.backend, tl).Inc()
		if from == StateQueued {
			m.mx.queueSec.With(j.backend, tl).Observe(at.Sub(j.submitted).Seconds())
		}
		j.queueSpan.End()
	default:
		m.finishLocked(j, from, at, res, errMsg)
	}
	m.emitLocked(j, errMsg)
	return nil
}

// finishLocked is moveLocked's terminal half: the job leaves its execution
// and the active set, its snapshot reaches the result store and waiters,
// the outcome is counted, and its spans close.
func (m *Manager) finishLocked(j *jobState, from State, at time.Time, res *tilt.Result, errMsg string) {
	m.detachLocked(j)
	snap := m.snapshotLocked(j)
	snap.Finished = at
	snap.Result = res
	snap.Error = errMsg
	m.store.Add(j.id, snap)
	delete(m.jobs, j.id)
	for _, ch := range m.waiters[j.id] {
		ch <- snap // buffered; each waiter registers exactly one slot
	}
	delete(m.waiters, j.id)
	if from != stateReplayed {
		switch j.state {
		case StateDone:
			m.stats.Done++
		case StateFailed:
			m.stats.Failed++
		case StateCancelled:
			m.stats.Cancelled++
		}
		tl := tenant.Label(j.tenant)
		m.mx.finished.With(j.backend, string(j.state), tl).Inc()
		if from == StateQueued && j.state == StateFailed {
			// A queued job fails only by outliving its TTL.
			m.mx.expired.With(j.backend, tl).Inc()
		}
	}
	// The queue-wait child (still open when a queued job is cancelled or
	// expires), then the root with the failure if any; nil-safe.
	j.queueSpan.End()
	j.span.SetAttr("state", string(j.state))
	if errMsg != "" {
		j.span.EndErr(errors.New(errMsg))
	} else {
		j.span.End()
	}
}

// record maps the job onto its journal record for op: the submission with
// its deadline and circuit, the bare started marker, or the terminal
// outcome with its result's wire form.
func (j *jobState) record(op journal.Op, at time.Time, result json.RawMessage, errMsg string) journal.Record {
	rec := journal.Record{Op: op, ID: j.id, Tenant: j.tenant, Backend: j.backend}
	if op == journal.OpStarted {
		return rec
	}
	rec.Name, rec.Priority, rec.Deduped, rec.Submitted = j.name, j.priority, j.deduped, j.submitted
	if op == journal.OpSubmitted {
		rec.Deadline, rec.Circuit = j.deadline, j.circuit
		return rec
	}
	rec.Finished, rec.State, rec.Error, rec.Result = at, string(j.state), errMsg, result
	return rec
}

// detachLocked unsubscribes a job from its execution; the last subscriber
// leaving cancels and retires the execution.
func (m *Manager) detachLocked(j *jobState) {
	e := j.exec
	if e == nil {
		return
	}
	delete(e.subs, j.id)
	if len(e.subs) > 0 {
		// The departed subscriber may have been the one holding the
		// priority up; recompute so the survivors queue at their own level.
		if e.state == StateQueued && j.priority >= e.priority {
			max := math.MinInt
			for _, s := range e.subs {
				if s.priority > max {
					max = s.priority
				}
			}
			if max != e.priority {
				e.priority = max
				if e.index >= 0 {
					heap.Fix(&e.pool.q, e.index)
				}
			}
		}
		return
	}
	// Guard against the key having been re-claimed by a fresh execution
	// submitted after this one was already being torn down.
	if m.inflight[e.key] == e {
		delete(m.inflight, e.key)
	}
	if e.state == StateQueued && e.index >= 0 {
		heap.Remove(&e.pool.q, e.index)
		m.gaugeQueueDepthLocked(e.pool)
	}
	e.cancel()
}

// worker is one pool worker: pop the highest-priority execution, run it
// through the runner, fan the outcome out to every subscriber. Workers
// exit once the manager is closed and the pool's queue is drained — that
// is the graceful-drain guarantee Shutdown waits on.
func (p *pool) worker() {
	m := p.m
	defer m.wg.Done()
	m.mu.Lock()
	for {
		e := p.popLocked()
		if e == nil {
			m.mu.Unlock()
			return // closed and drained
		}
		m.gaugeQueueDepthLocked(p)

		// Prune subscribers whose TTL expired while queued; if none are
		// left the execution is dropped without compiling anything.
		now := time.Now()
		for _, j := range e.subs {
			if j.expired(now) {
				m.moveLocked(j, StateFailed, now, nil, nil, ErrTTLExpired.Error())
			}
		}
		if len(e.subs) == 0 {
			continue
		}

		e.state = StateRunning
		e.started = now
		p.running++
		m.tstateLocked(e.tenant).runningExecs++
		m.gaugeInflightLocked(e.tenant)
		var pos int64
		for _, j := range e.subs {
			m.moveLocked(j, StateRunning, now, nil, nil, "")
			pos = max(pos, j.pos)
		}
		m.mu.Unlock()

		// Nothing runs for a submission that is not durable yet. The wait
		// usually joins the submitter's own fsync, already in flight.
		if err := m.syncTo(pos); err != nil {
			m.mu.Lock()
			if !m.withdrawUndurableLocked(e, err) {
				m.completeLocked(e, runner.JobResult{}, nil)
				continue
			}
			m.mu.Unlock()
		}

		// One runner job per execution: panic recovery, latency metering,
		// and cancellation semantics all come from the runner layer.
		res := runner.Run(e.ctx, []runner.Job{{
			Name:    e.name,
			Backend: p.backend,
			Circuit: e.circuit,
		}}, m.runnerOpts...)[0]
		var wire json.RawMessage
		if m.jnl != nil && res.Result != nil {
			// One marshal per execution, shared by every subscriber's
			// terminal record; a Result that cannot be marshalled is
			// journaled without one.
			wire, _ = json.Marshal(res.Result)
		}

		m.mu.Lock()
		m.completeLocked(e, res, wire)
	}
}

// withdrawUndurableLocked withdraws the execution's subscribers whose
// submitted records the failed fsync left undurable (their Submit calls
// fail with the same sticky error), and reports whether any (durable)
// subscriber is left to run it for.
func (m *Manager) withdrawUndurableLocked(e *execution, err error) bool {
	durable := m.jnl.Durable()
	for _, j := range e.subs {
		if j.pos > durable {
			m.withdrawLocked(j, err)
		}
	}
	return len(e.subs) > 0
}

// popLocked returns the next execution this worker may run, honoring the
// per-tenant in-flight caps: capped executions are set aside and re-queued,
// and when everything queued is capped the worker waits for a completion
// to free a slot (a capped tenant by definition has executions running, so
// a wake-up is always coming). Returns nil once the manager is closed and
// the queue has drained.
func (p *pool) popLocked() *execution {
	m := p.m
	for {
		for p.q.Len() == 0 && !m.closed {
			p.cond.Wait()
		}
		if p.q.Len() == 0 {
			return nil // closed and drained
		}
		var parked []*execution
		var e *execution
		for p.q.Len() > 0 {
			c := heap.Pop(&p.q).(*execution)
			if m.eligibleLocked(c) {
				e = c
				break
			}
			parked = append(parked, c)
		}
		for _, pe := range parked {
			heap.Push(&p.q, pe)
		}
		if e != nil {
			if e.vtime > p.vnow {
				p.vnow = e.vtime // advance the weighted-fair virtual clock
			}
			return e
		}
		p.cond.Wait()
	}
}

// eligibleLocked reports whether the execution's owning tenant has an
// in-flight slot free.
func (m *Manager) eligibleLocked(e *execution) bool {
	if m.treg == nil || e.tenant == "" {
		return true
	}
	t, ok := m.treg.Lookup(e.tenant)
	if !ok || t.MaxInFlight <= 0 {
		return true
	}
	return m.tstateLocked(e.tenant).runningExecs < t.MaxInFlight
}

// completeLocked retires a finished execution and fans its outcome out to
// every remaining subscriber; the last one to leave retires the execution
// from the dedup index and releases its context. All subscribers share the
// same Result pointer and its one journal wire form (nil without a
// journal): results are read-only and bit-identical by construction, so
// duplicates genuinely pay for one compile, one simulate and one marshal.
func (m *Manager) completeLocked(e *execution, res runner.JobResult, wire json.RawMessage) {
	e.pool.running--
	m.tstateLocked(e.tenant).runningExecs--
	m.gaugeInflightLocked(e.tenant)
	// A freed in-flight slot may unblock capped executions on any pool.
	for _, p := range m.pools {
		p.cond.Broadcast()
	}
	st := StateDone
	errMsg := ""
	if res.Err != nil {
		errMsg = res.Err.Error()
		st = StateFailed
		if errors.Is(res.Err, context.Canceled) || errors.Is(res.Err, context.DeadlineExceeded) {
			st = StateCancelled
		}
	}
	now := time.Now()
	for _, j := range e.subs {
		m.moveLocked(j, st, now, res.Result, wire, errMsg)
	}
}

// execQueue is a max-heap of executions by (priority, weighted-fair
// virtual finish time, FIFO sequence). With one tenant (or no registry)
// every weight is 1, vtime increases in submit order, and the order
// degenerates to the old priority-then-FIFO.
type execQueue []*execution

func (q execQueue) Len() int { return len(q) }
func (q execQueue) Less(i, j int) bool {
	if q[i].priority != q[j].priority {
		return q[i].priority > q[j].priority
	}
	if q[i].vtime != q[j].vtime {
		return q[i].vtime < q[j].vtime
	}
	return q[i].seq < q[j].seq
}
func (q execQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *execQueue) Push(x any) {
	e := x.(*execution)
	e.index = len(*q)
	*q = append(*q, e)
}
func (q *execQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*q = old[:n-1]
	return e
}
