package journal_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	tilt "repro"
	"repro/internal/jobs"
	"repro/internal/journal"
)

// These tests drive a journaled jobs.Manager through the journal's fault
// seam: every segment file is wrapped by a faultDisk that can stall or fail
// fsync and remembers how much of each file an fsync has made durable, so
// a test can cut the power.

// faultDisk is the shared state of every segment file one journal opens.
type faultDisk struct {
	mu      sync.Mutex
	gate    chan struct{} // non-nil: Sync blocks until it is closed
	err     error         // non-nil: Sync fails with it
	errOnce error         // non-nil: the next Sync past the gate fails with it, later ones succeed (a writeback error reported once)
	delay   time.Duration // every Sync takes at least this long
	files   []*faultFile
	syncs   atomic.Int64  // Sync calls made, failed ones included
	entered chan struct{} // a token per Sync that starts; buffered and sent without blocking, so a test that does not read it never stalls a Sync
}

func newFaultDisk() *faultDisk { return &faultDisk{entered: make(chan struct{}, 1024)} }

func (d *faultDisk) wrap(f journal.SegmentFile) journal.SegmentFile {
	ff := &faultFile{f: f, disk: d}
	d.mu.Lock()
	d.files = append(d.files, ff)
	d.mu.Unlock()
	return ff
}

// stall makes every Sync block until the returned release is called. A
// test that fails first releases at cleanup, so the manager can shut down.
func (d *faultDisk) stall(t *testing.T) (release func()) {
	gate := make(chan struct{})
	d.mu.Lock()
	d.gate = gate
	d.mu.Unlock()
	var once sync.Once
	release = func() {
		once.Do(func() {
			d.mu.Lock()
			d.gate = nil
			d.mu.Unlock()
			close(gate)
		})
	}
	t.Cleanup(release)
	return release
}

func (d *faultDisk) set(err error, delay time.Duration) {
	d.mu.Lock()
	d.err, d.delay = err, delay
	d.mu.Unlock()
}

// failOnce makes the next Sync past the stall gate fail with err and the
// ones after it succeed.
func (d *faultDisk) failOnce(err error) {
	d.mu.Lock()
	d.errOnce = err
	d.mu.Unlock()
}

// cutPower returns a directory holding what a power failure now would
// leave of every segment file: the bytes an fsync made durable.
func (d *faultDisk) cutPower(t *testing.T) string {
	t.Helper()
	out := t.TempDir()
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, ff := range d.files {
		ff.mu.Lock()
		name, synced := ff.f.(*os.File).Name(), ff.synced
		ff.mu.Unlock()
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(out, filepath.Base(name)), data[:synced], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// faultFile is one segment file behind the seam.
type faultFile struct {
	f    journal.SegmentFile
	disk *faultDisk

	mu      sync.Mutex
	written int64 // bytes written
	synced  int64 // bytes a successful Sync covered
}

func (ff *faultFile) Write(p []byte) (int, error) {
	n, err := ff.f.Write(p)
	ff.mu.Lock()
	ff.written += int64(n)
	ff.mu.Unlock()
	return n, err
}

func (ff *faultFile) Sync() error {
	ff.mu.Lock()
	covered := ff.written
	ff.mu.Unlock()
	d := ff.disk
	d.mu.Lock()
	gate := d.gate
	d.mu.Unlock()
	select {
	case d.entered <- struct{}{}:
	default:
	}
	if gate != nil {
		<-gate
	}
	d.mu.Lock()
	err, delay := d.err, d.delay
	if d.errOnce != nil {
		err, d.errOnce = d.errOnce, nil
	}
	d.mu.Unlock()
	time.Sleep(delay)
	d.syncs.Add(1)
	if err != nil {
		return err
	}
	if err := ff.f.Sync(); err != nil {
		return err
	}
	ff.mu.Lock()
	ff.synced = max(ff.synced, covered)
	ff.mu.Unlock()
	return nil
}

func (ff *faultFile) Close() error { return ff.f.Close() }

// countingBackend runs every job at once and counts the compiles it saw.
type countingBackend struct{ compiles atomic.Int64 }

func (b *countingBackend) Name() string { return "TILT" }

func (b *countingBackend) Compile(ctx context.Context, c *tilt.Circuit) (*tilt.Artifact, error) {
	b.compiles.Add(1)
	return &tilt.Artifact{Backend: "TILT", Circuit: c}, ctx.Err()
}

func (b *countingBackend) Simulate(ctx context.Context, a *tilt.Artifact) (*tilt.Result, error) {
	return &tilt.Result{Backend: "TILT", SuccessRate: float64(a.Circuit.Gates()[0].Theta)}, ctx.Err()
}

// circuit returns a small circuit distinct for each k, so no two
// submissions dedup.
func circuit(k int) *tilt.Circuit {
	c := tilt.NewCircuit(2)
	c.ApplyRZ(float64(k+1)/1024, 0)
	c.ApplyCNOT(0, 1)
	return c
}

// openManager opens a fsynced journal in dir behind disk and starts a
// manager on it with one TILT pool of two workers.
func openManager(t *testing.T, dir string, disk *faultDisk, be tilt.Backend) (*jobs.Manager, *journal.Journal) {
	t.Helper()
	jnl, err := journal.Open(dir, journal.WithSegmentWrapper(disk.wrap))
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := jobs.New([]jobs.Pool{{Name: "TILT", Backend: be, Workers: 2}}, jobs.WithJournal(jnl))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = mgr.Shutdown(ctx)
		_ = jnl.Close()
	})
	return mgr, jnl
}

func wait(t *testing.T, mgr *jobs.Manager, id string) jobs.Job {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	job, err := mgr.Wait(ctx, id)
	if err != nil {
		t.Fatalf("wait %s: %v", id, err)
	}
	return job
}

// prompt fails the test unless fn returns within a second.
func prompt(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		fn()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatalf("%s blocked behind a stalled fsync", what)
	}
}

// TestStalledFsyncDoesNotBlockReads: while one submission's fsync hangs,
// the manager's in-memory reads — Get, PoolLoads (the /v1/backends
// source), another tenant's List, Stats — answer at once, and the stalled
// job does not run until its record is durable.
func TestStalledFsyncDoesNotBlockReads(t *testing.T) {
	disk := newFaultDisk()
	be := &countingBackend{}
	mgr, _ := openManager(t, t.TempDir(), disk, be)

	other, err := mgr.Submit(jobs.Request{Backend: "TILT", Circuit: circuit(0), Tenant: "b"})
	if err != nil {
		t.Fatal(err)
	}
	wait(t, mgr, other)
	for len(disk.entered) > 0 {
		<-disk.entered
	}

	release := disk.stall(t)
	submitted := make(chan error, 1)
	var id string
	go func() {
		var err error
		id, err = mgr.Submit(jobs.Request{Backend: "TILT", Circuit: circuit(1), Tenant: "a"})
		submitted <- err
	}()
	select {
	case <-disk.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the submission never reached fsync")
	}

	prompt(t, "Get", func() {
		if job, err := mgr.Get(other); err != nil || job.State != jobs.StateDone {
			t.Errorf("Get(%s) = %v, %v", other, job.State, err)
		}
	})
	prompt(t, "PoolLoads", func() {
		if loads := mgr.PoolLoads(); len(loads) != 1 || loads[0].Backend != "TILT" {
			t.Errorf("PoolLoads = %+v", loads)
		}
	})
	prompt(t, "List of another tenant", func() {
		if list := mgr.List("b"); len(list) != 1 || list[0].ID != other {
			t.Errorf("List(b) = %+v", list)
		}
	})
	prompt(t, "Stats", func() { mgr.Stats() })
	select {
	case err := <-submitted:
		t.Fatalf("Submit returned (%v) before its fsync", err)
	default:
	}
	if n := be.compiles.Load(); n != 1 {
		t.Fatalf("%d compiles while the submission was not durable, want 1", n)
	}

	release()
	if err := <-submitted; err != nil {
		t.Fatal(err)
	}
	if job := wait(t, mgr, id); job.State != jobs.StateDone {
		t.Fatalf("stalled job ended %s: %s", job.State, job.Error)
	}
}

// TestFailedFsyncWithdrawsSubmission: a submission whose fsync fails is
// refused with the error, never reaches the backend, and leaves nothing
// queued or running. The failure is sticky: with the disk healthy again,
// later submissions are still refused, until the journal is reopened.
// Replay then finds the refused jobs cancelled, and submissions run again.
func TestFailedFsyncWithdrawsSubmission(t *testing.T) {
	dir := t.TempDir()
	disk := newFaultDisk()
	be := &countingBackend{}
	mgr, jnl := openManager(t, dir, disk, be)

	injected := errors.New("injected EIO")
	disk.failOnce(injected)
	id, err := mgr.Submit(jobs.Request{Backend: "TILT", Circuit: circuit(0)})
	if !errors.Is(err, injected) {
		t.Fatalf("Submit = %q, %v; want the fsync error", id, err)
	}
	id, err = mgr.Submit(jobs.Request{Backend: "TILT", Circuit: circuit(1)})
	if !errors.Is(err, injected) {
		t.Fatalf("Submit after the failure = %q, %v; want the first fsync error", id, err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for st := mgr.Stats(); st.Queued+st.Running > 0; st = mgr.Stats() {
		if time.Now().After(deadline) {
			t.Fatalf("withdrawn job still live: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	list := mgr.List("")
	if len(list) != 2 {
		t.Fatalf("%d jobs listed, want the 2 withdrawn ones", len(list))
	}
	for _, job := range list {
		if job.State != jobs.StateCancelled || job.Result != nil {
			t.Fatalf("withdrawn job reads %+v", job)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := mgr.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := jnl.Close(); !errors.Is(err, injected) {
		t.Fatalf("Close = %v, want the fsync error", err)
	}

	mgr, _ = openManager(t, dir, newFaultDisk(), be)
	for _, old := range list {
		if job, err := mgr.Get(old.ID); err != nil || job.State != jobs.StateCancelled {
			t.Fatalf("withdrawn job %s replays as %v, %v", old.ID, job.State, err)
		}
	}
	ok, err := mgr.Submit(jobs.Request{Backend: "TILT", Circuit: circuit(2)})
	if err != nil {
		t.Fatal(err)
	}
	if job := wait(t, mgr, ok); job.State != jobs.StateDone {
		t.Fatalf("job after reopening ended %s: %s", job.State, job.Error)
	}
	if n := be.compiles.Load(); n != 1 {
		t.Fatalf("backend compiled %d circuits, want only the durable one", n)
	}
}

// TestFsyncFailureReachesQueuedSubmitter: a submitter and the worker
// dispatching its job both wait on the same fsync, one as the leader and
// one queued behind it. The fsync fails and the disk would report success
// to the next one. The submitter still gets the error, no second fsync
// runs, and the backend never sees the job.
func TestFsyncFailureReachesQueuedSubmitter(t *testing.T) {
	disk := newFaultDisk()
	be := &countingBackend{}
	mgr, _ := openManager(t, t.TempDir(), disk, be)

	release := disk.stall(t)
	before := disk.syncs.Load()
	submitted := make(chan error, 1)
	go func() {
		_, err := mgr.Submit(jobs.Request{Backend: "TILT", Circuit: circuit(0)})
		submitted <- err
	}()
	select {
	case <-disk.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the submission never reached fsync")
	}
	// The worker moves the job to running before its durability wait.
	deadline := time.Now().Add(10 * time.Second)
	for mgr.Stats().Running == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no worker picked the job up")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond) // let the second waiter queue on the leader
	injected := errors.New("injected EIO")
	disk.failOnce(injected)
	release()

	if err := <-submitted; !errors.Is(err, injected) {
		t.Fatalf("Submit = %v, want the failed fsync's error", err)
	}
	// Shutdown waits for the worker, so its durability wait has returned.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := mgr.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if st := mgr.Stats(); st.Queued+st.Running > 0 || st.Cancelled != 1 {
		t.Errorf("withdrawn job not cancelled: %+v", st)
	}
	if n := disk.syncs.Load() - before; n != 1 {
		t.Errorf("%d fsyncs, want only the failed one", n)
	}
	if n := be.compiles.Load(); n != 0 {
		t.Errorf("backend compiled %d circuits for a submission that never became durable", n)
	}
}

// TestConcurrentSubmitsShareFsyncs: N submissions racing a slow disk need
// fewer than N fsyncs, and every ID they return survives a power cut.
func TestConcurrentSubmitsShareFsyncs(t *testing.T) {
	const n = 16
	disk := newFaultDisk()
	mgr, _ := openManager(t, t.TempDir(), disk, &countingBackend{})

	disk.set(nil, 5*time.Millisecond)
	before := disk.syncs.Load()
	ids := make([]string, n)
	var wg sync.WaitGroup
	for k := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			id, err := mgr.Submit(jobs.Request{Backend: "TILT", Circuit: circuit(k)})
			if err != nil {
				t.Error(err)
			}
			ids[k] = id
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if got := disk.syncs.Load() - before; got >= n {
		t.Errorf("%d submissions took %d fsyncs, want fewer (group commit)", n, got)
	}

	jnl, err := journal.Open(disk.cutPower(t), journal.WithoutSync())
	if err != nil {
		t.Fatal(err)
	}
	defer jnl.Close()
	seen := map[string]bool{}
	if err := jnl.Replay(func(rec journal.Record) error {
		if rec.Op == journal.OpSubmitted {
			seen[rec.ID] = true
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if !seen[id] {
			t.Errorf("returned ID %s lost its submitted record to a power cut", id)
		}
	}
}

// TestRecordsInTransitionOrder: with the fsyncs taken out of the lock,
// every job's records still land in the segment in lifecycle order.
func TestRecordsInTransitionOrder(t *testing.T) {
	const n = 12
	dir := t.TempDir()
	disk := newFaultDisk()
	mgr, jnl := openManager(t, dir, disk, &countingBackend{})
	disk.set(nil, time.Millisecond)

	ids := make([]string, n)
	var wg sync.WaitGroup
	for k := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			id, err := mgr.Submit(jobs.Request{Backend: "TILT", Circuit: circuit(k % 4)})
			if err != nil {
				t.Error(err)
			}
			ids[k] = id
		}()
	}
	wg.Wait()
	for _, id := range ids {
		wait(t, mgr, id)
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments %v: %v", segs, err)
	}
	ops := map[string][]journal.Op{}
	for _, seg := range segs {
		recs, err := journal.ReadSegment(seg)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			ops[rec.ID] = append(ops[rec.ID], rec.Op)
		}
	}
	lifecycle := []journal.Op{journal.OpSubmitted, journal.OpStarted, journal.OpFinalized}
	// A duplicate that attached to a running execution starts with it and
	// so has no started record of its own.
	attached := []journal.Op{journal.OpSubmitted, journal.OpFinalized}
	for _, id := range ids {
		if !slices.Equal(ops[id], lifecycle) && !slices.Equal(ops[id], attached) {
			t.Errorf("%s records %v, want %v", id, ops[id], lifecycle)
		}
	}
}
