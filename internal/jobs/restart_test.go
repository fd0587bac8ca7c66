package jobs_test

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	tilt "repro"
	"repro/internal/jobs"
	"repro/internal/journal"
	"repro/internal/tenant"
)

// partialBackend blocks compiles selectively: circuits for which block
// returns true park on the gate, everything else runs straight through. It
// lets one test hold specific jobs queued or in-flight while others finish.
type partialBackend struct {
	name  string
	block func(c *tilt.Circuit) bool
	gate  chan struct{}
	mu    sync.Mutex
	order []int
}

func (b *partialBackend) Name() string { return b.name }

func (b *partialBackend) Compile(ctx context.Context, c *tilt.Circuit) (*tilt.Artifact, error) {
	if b.block != nil && b.block(c) {
		select {
		case <-b.gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	b.mu.Lock()
	b.order = append(b.order, c.NumQubits())
	b.mu.Unlock()
	return &tilt.Artifact{Backend: b.name, Circuit: c}, nil
}

func (b *partialBackend) Simulate(ctx context.Context, a *tilt.Artifact) (*tilt.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// A per-circuit result, so the byte-identity assertions compare real
	// content instead of a constant.
	return &tilt.Result{Backend: b.name, SuccessRate: float64(a.Circuit.NumQubits()) / 100}, nil
}

// waitState polls until the job reaches the given (non-terminal) state.
func waitState(t *testing.T, m *jobs.Manager, id string, want jobs.State) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		j, err := m.Get(id)
		if err != nil {
			t.Fatalf("Get(%s): %v", id, err)
		}
		if j.State == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached state %s", id, want)
}

// TestRestartRecovery is the crash-recovery contract at the manager level:
// a journal-backed manager dies (journal closed cold, no drain) with jobs
// in every lifecycle stage, and a second manager over the same directory
// brings each one back correctly — finished results byte for byte, queued
// jobs re-queued, in-flight jobs re-run, TTL lapses honored, and jobs for a
// vanished backend failed rather than silently dropped.
func TestRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	gate := make(chan struct{})
	// Circuits with 3 qubits run free; everything else parks on the gate.
	be1 := &partialBackend{name: "fake", block: func(c *tilt.Circuit) bool { return c.NumQubits() != 3 }, gate: gate}
	beO := &partialBackend{name: "other", block: func(c *tilt.Circuit) bool { return true }, gate: gate}

	jnl1, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := jobs.New([]jobs.Pool{
		{Name: "fake", Backend: be1, Workers: 1},
		{Name: "other", Backend: beO, Workers: 1},
	}, jobs.WithJournal(jnl1))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		close(gate)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = m1.Shutdown(ctx)
	}()

	submit := func(backend string, qubits int, ttl time.Duration) string {
		t.Helper()
		id, err := m1.Submit(jobs.Request{Backend: backend, Circuit: tilt.GHZ(qubits).Circuit, TTL: ttl})
		if err != nil {
			t.Fatal(err)
		}
		return id
	}

	idDone := submit("fake", 3, 0) // runs free, finishes before the crash
	doneJob := waitTerminal(t, m1, idDone)
	if doneJob.State != jobs.StateDone {
		t.Fatalf("pre-crash job state = %s (%s)", doneJob.State, doneJob.Error)
	}
	wantResult, err := json.Marshal(doneJob.Result)
	if err != nil {
		t.Fatal(err)
	}

	idRun := submit("fake", 7, 0) // in flight at crash time
	waitState(t, m1, idRun, jobs.StateRunning)
	// A TTL'd duplicate attached to the running execution never waits in
	// the queue, so its TTL is already satisfied: it must re-run with idRun
	// after the restart, not expire.
	idDupRun := submit("fake", 7, 50*time.Millisecond)
	idQueued := submit("fake", 9, 0)                 // queued behind it (1 worker)
	idTTL := submit("fake", 11, 50*time.Millisecond) // will outlive its TTL during the outage
	idLost := submit("other", 5, 0)                  // its backend does not come back

	// Crash: close the journal cold. No drain, no finalize — exactly what
	// kill -9 leaves behind (submissions were fsynced on the way in).
	if err := jnl1.Close(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // the TTL job's deadline lapses

	jnl2, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer jnl2.Close()
	be2 := &partialBackend{name: "fake"}
	m2 := newManager(t, []jobs.Pool{{Name: "fake", Backend: be2, Workers: 1}}, jobs.WithJournal(jnl2))

	rc := m2.Recovery()
	// idDupRun has no started record (it never dispatched on its own), so
	// it counts as requeued alongside idQueued.
	want := jobs.Recovery{Requeued: 2, Rerun: 1, Terminal: 1, Expired: 1, Unrecoverable: 1}
	if rc != want {
		t.Fatalf("Recovery() = %+v, want %+v", rc, want)
	}

	// The finished job's result survived byte for byte.
	j, err := m2.Get(idDone)
	if err != nil {
		t.Fatal(err)
	}
	if j.State != jobs.StateDone {
		t.Fatalf("recovered terminal job state = %s", j.State)
	}
	got, err := json.Marshal(j.Result)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(wantResult) {
		t.Errorf("recovered result diverged:\n got %s\nwant %s", got, wantResult)
	}

	// Queued and in-flight jobs run again to completion under their old IDs.
	for _, id := range []string{idQueued, idRun} {
		j := waitTerminal(t, m2, id)
		if j.State != jobs.StateDone {
			t.Errorf("job %s after restart: state = %s (%s)", id, j.State, j.Error)
		}
		if j.Result == nil {
			t.Errorf("job %s after restart has no result", id)
		}
	}
	runJob, dupJob := waitTerminal(t, m2, idRun), waitTerminal(t, m2, idDupRun)
	if dupJob.State != jobs.StateDone {
		t.Errorf("running-attached duplicate after restart: state = %s (%s)", dupJob.State, dupJob.Error)
	}
	runRes, _ := json.Marshal(runJob.Result)
	dupRes, _ := json.Marshal(dupJob.Result)
	if string(dupRes) != string(runRes) {
		t.Errorf("duplicate result diverged from its leader:\n got %s\nwant %s", dupRes, runRes)
	}

	// The TTL job expired during the outage.
	j, err = m2.Get(idTTL)
	if err != nil {
		t.Fatal(err)
	}
	if j.State != jobs.StateFailed || !strings.Contains(j.Error, "TTL expired") {
		t.Errorf("TTL job after restart: state = %s, error = %q", j.State, j.Error)
	}

	// The job for the vanished backend failed loudly instead of vanishing.
	j, err = m2.Get(idLost)
	if err != nil {
		t.Fatal(err)
	}
	if j.State != jobs.StateFailed || !strings.Contains(j.Error, "other") {
		t.Errorf("lost-backend job after restart: state = %s, error = %q", j.State, j.Error)
	}

	// Fresh submissions do not collide with recovered IDs.
	idNew, err := m2.Submit(jobs.Request{Backend: "fake", Circuit: tilt.GHZ(13).Circuit})
	if err != nil {
		t.Fatal(err)
	}
	for _, old := range []string{idDone, idRun, idDupRun, idQueued, idTTL, idLost} {
		if idNew == old {
			t.Fatalf("new submission reused recovered ID %s", old)
		}
	}
	waitTerminal(t, m2, idNew)

	// Recovery checkpointed: the journal shrank back to one segment.
	segs, err := jnl2.Segments()
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Errorf("journal not checkpointed after recovery: segments %v", segs)
	}
}

// TestWeightedFairScheduling holds one worker busy, queues eight jobs each
// for a weight-3 and a weight-1 tenant, and checks the release order: the
// weight-3 tenant owns ~3/4 of the early slots.
func TestWeightedFairScheduling(t *testing.T) {
	treg, err := tenant.New(
		tenant.Tenant{ID: "alice", Key: "ka", Weight: 3},
		tenant.Tenant{ID: "bob", Key: "kb", Weight: 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	be := &fakeBackend{name: "fake", gate: gate}
	m := newManager(t, []jobs.Pool{{Name: "fake", Backend: be, Workers: 1}}, jobs.WithTenants(treg))

	// The blocker occupies the only worker while the contenders queue up.
	blocker, err := m.Submit(jobs.Request{Backend: "fake", Circuit: tilt.GHZ(3).Circuit})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, blocker, jobs.StateRunning)

	var ids []string
	for i := 0; i < 8; i++ {
		// Alice's circuits have even qubit counts, Bob's odd — the backend
		// records qubit counts in execution order.
		idA, err := m.Submit(jobs.Request{Backend: "fake", Tenant: "alice", Circuit: tilt.GHZ(10 + 2*i).Circuit})
		if err != nil {
			t.Fatal(err)
		}
		idB, err := m.Submit(jobs.Request{Backend: "fake", Tenant: "bob", Circuit: tilt.GHZ(11 + 2*i).Circuit})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, idA, idB)
	}
	close(gate)
	for _, id := range ids {
		if j := waitTerminal(t, m, id); j.State != jobs.StateDone {
			t.Fatalf("job %s: state = %s (%s)", id, j.State, j.Error)
		}
	}

	be.mu.Lock()
	order := append([]int{}, be.order...)
	be.mu.Unlock()
	if len(order) != 17 || order[0] != 3 {
		t.Fatalf("execution order = %v", order)
	}
	alice := 0
	for _, q := range order[1:9] {
		if q%2 == 0 {
			alice++
		}
	}
	// Weight 3 vs 1 entitles Alice to 6 of the first 8 slots.
	if alice < 6 {
		t.Errorf("alice won %d of the first 8 slots, want >= 6; order %v", alice, order[1:9])
	}
	if alice == 8 {
		t.Errorf("bob starved outright; order %v", order[1:9])
	}
}

// TestQueuedQuota: submissions over the tenant's max_queued are refused
// with ErrQuotaExceeded, and cancelling a queued job frees the slot.
func TestQueuedQuota(t *testing.T) {
	treg, err := tenant.New(tenant.Tenant{ID: "alice", Key: "ka", MaxQueued: 2})
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	be := &fakeBackend{name: "fake", gate: gate}
	m := newManager(t, []jobs.Pool{{Name: "fake", Backend: be, Workers: 1}}, jobs.WithTenants(treg))
	defer close(gate)

	blocker, err := m.Submit(jobs.Request{Backend: "fake", Circuit: tilt.GHZ(3).Circuit})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, blocker, jobs.StateRunning)

	if _, err := m.Submit(jobs.Request{Backend: "fake", Tenant: "alice", Circuit: tilt.GHZ(4).Circuit}); err != nil {
		t.Fatal(err)
	}
	idSecond, err := m.Submit(jobs.Request{Backend: "fake", Tenant: "alice", Circuit: tilt.GHZ(5).Circuit})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(jobs.Request{Backend: "fake", Tenant: "alice", Circuit: tilt.GHZ(6).Circuit}); !errors.Is(err, jobs.ErrQuotaExceeded) {
		t.Fatalf("third queued submission: err = %v, want ErrQuotaExceeded", err)
	}

	// Cancelling a queued job frees a quota slot.
	if err := m.Cancel(idSecond); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(jobs.Request{Backend: "fake", Tenant: "alice", Circuit: tilt.GHZ(6).Circuit}); err != nil {
		t.Errorf("submission after cancel: %v", err)
	}
}

// TestMaxInFlightCap: a tenant capped at one concurrent execution keeps its
// other jobs queued even while workers idle — and other tenants run past it.
func TestMaxInFlightCap(t *testing.T) {
	treg, err := tenant.New(tenant.Tenant{ID: "alice", Key: "ka", MaxInFlight: 1})
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	be := &fakeBackend{name: "fake", gate: gate}
	m := newManager(t, []jobs.Pool{{Name: "fake", Backend: be, Workers: 3}}, jobs.WithTenants(treg))

	var alice []string
	for q := 4; q <= 6; q++ {
		id, err := m.Submit(jobs.Request{Backend: "fake", Tenant: "alice", Circuit: tilt.GHZ(q).Circuit})
		if err != nil {
			t.Fatal(err)
		}
		alice = append(alice, id)
	}
	countAlice := func() (running, queued int) {
		for _, id := range alice {
			j, err := m.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			switch j.State {
			case jobs.StateRunning:
				running++
			case jobs.StateQueued:
				queued++
			}
		}
		return
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if r, _ := countAlice(); r == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no alice job reached running")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Another tenant is not blocked by alice's cap: with two idle workers,
	// bob's job reaches running while alice's others stay queued.
	idBob, err := m.Submit(jobs.Request{Backend: "fake", Tenant: "bob", Circuit: tilt.GHZ(7).Circuit})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, idBob, jobs.StateRunning)

	if r, q := countAlice(); r != 1 || q != 2 {
		t.Errorf("alice running=%d queued=%d, want 1 running / 2 queued under the cap", r, q)
	}

	close(gate)
	for _, id := range append(alice, idBob) {
		if j := waitTerminal(t, m, id); j.State != jobs.StateDone {
			t.Errorf("job %s: state = %s (%s)", id, j.State, j.Error)
		}
	}
}
