package journal

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countingFile counts the fsyncs that reach a segment file and can make
// each one slow or fail.
type countingFile struct {
	segmentFile
	syncs *atomic.Int64
	delay time.Duration
	err   error
}

func (f *countingFile) Sync() error {
	time.Sleep(f.delay)
	f.syncs.Add(1)
	if f.err != nil {
		return f.err
	}
	return f.segmentFile.Sync()
}

// openCounting opens a journal whose segment files count their fsyncs.
func openCounting(t *testing.T, delay time.Duration, opts ...Option) (*Journal, *atomic.Int64) {
	t.Helper()
	syncs := new(atomic.Int64)
	j, err := Open(t.TempDir(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	j.f = &countingFile{segmentFile: j.f, syncs: syncs, delay: delay}
	j.wrap = func(f segmentFile) segmentFile { return &countingFile{segmentFile: f, syncs: syncs, delay: delay} }
	t.Cleanup(func() { j.Close() })
	return j, syncs
}

func write(t *testing.T, j *Journal, id string) int64 {
	t.Helper()
	pos, err := j.Write(rec(OpSubmitted, id, nil))
	if err != nil {
		t.Fatal(err)
	}
	return pos
}

// TestSyncToCoversEverythingWritten: Write does not fsync; one SyncTo
// fsyncs every record written so far, and positions it covered need no
// second fsync. Each fsync is booked in the counter and the histogram.
func TestSyncToCoversEverythingWritten(t *testing.T) {
	j, syncs := openCounting(t, 0)
	p1, p2, p3 := write(t, j, "j-1"), write(t, j, "j-2"), write(t, j, "j-3")
	if !(0 < p1 && p1 < p2 && p2 < p3) {
		t.Fatalf("positions %d, %d, %d do not grow", p1, p2, p3)
	}
	if n := syncs.Load(); n != 0 || j.Durable() != 0 {
		t.Fatalf("Write fsynced: %d fsyncs, durable %d", n, j.Durable())
	}
	if err := j.SyncTo(p2); err != nil {
		t.Fatal(err)
	}
	if j.Durable() != p3 {
		t.Fatalf("durable %d after SyncTo(%d), want every written byte (%d)", j.Durable(), p2, p3)
	}
	for _, p := range []int64{p1, p3} {
		if err := j.SyncTo(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Append(rec(OpStarted, "j-1", nil)); err != nil {
		t.Fatal(err)
	}
	if n := syncs.Load(); n != 2 {
		t.Fatalf("%d fsyncs, want 2", n)
	}
	if c, h := j.mx.fsyncs.Value(), j.mx.fsyncSec.Count(); c != 2 || h != 2 {
		t.Fatalf("booked %d fsyncs and %d fsync latencies, want 2 each", c, h)
	}
}

// TestConcurrentSyncToShareFsyncs: writers racing a slow disk each get
// their record durable, with fewer fsyncs than writers.
func TestConcurrentSyncToShareFsyncs(t *testing.T) {
	const n = 16
	j, syncs := openCounting(t, 2*time.Millisecond)
	var wg sync.WaitGroup
	for k := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pos, err := j.Write(rec(OpSubmitted, "j-"+string(rune('a'+k)), nil))
			if err == nil {
				err = j.SyncTo(pos)
			}
			if err == nil && j.Durable() < pos {
				err = errors.New("SyncTo returned before its position was durable")
			}
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := syncs.Load(); got >= n {
		t.Fatalf("%d writers took %d fsyncs, want fewer", n, got)
	}
}

// TestRotationMakesWritesDurable: sealing a segment fsyncs it, so every
// position written before a rotation is durable without a SyncTo.
func TestRotationMakesWritesDurable(t *testing.T) {
	j, syncs := openCounting(t, 0, WithSegmentBytes(256))
	var pos int64
	for k := 0; len(j.segIDs) < 2; k++ {
		pos = write(t, j, "j-"+string(rune('a'+k)))
	}
	if j.Durable() < pos {
		t.Fatalf("durable %d after rotation, want ≥ %d", j.Durable(), pos)
	}
	n := syncs.Load()
	if err := j.SyncTo(pos); err != nil || syncs.Load() != n {
		t.Fatalf("SyncTo of a rotated position: %v, %d more fsyncs", err, syncs.Load()-n)
	}
}

// TestSyncToWithoutSyncIsNoop: WithoutSync journals never fsync a record.
func TestSyncToWithoutSyncIsNoop(t *testing.T) {
	j, syncs := openCounting(t, 0, WithoutSync())
	if err := j.Append(rec(OpSubmitted, "j-1", nil)); err != nil {
		t.Fatal(err)
	}
	if err := j.SyncTo(write(t, j, "j-2")); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if n := syncs.Load(); n != 0 {
		t.Fatalf("%d fsyncs, want none", n)
	}
}

// TestFailedFsyncIsSticky: a failed fsync reaches the caller and leaves
// the position undurable for good. Once the disk reports success again,
// later SyncTo calls, a rotation and Close still return the failure and
// Durable does not move, because a second fsync may succeed without the
// failed records on disk.
func TestFailedFsyncIsSticky(t *testing.T) {
	j, syncs := openCounting(t, 0, WithSegmentBytes(256))
	good := write(t, j, "j-0")
	if err := j.SyncTo(good); err != nil {
		t.Fatal(err)
	}
	pos := write(t, j, "j-1")
	eio := errors.New("EIO")
	f := j.f.(*countingFile)
	f.err = eio
	if err := j.SyncTo(pos); !errors.Is(err, eio) || j.Durable() != good {
		t.Fatalf("SyncTo on a failing disk: %v, durable %d (want %d)", err, j.Durable(), good)
	}
	f.err = nil
	n := syncs.Load()
	if err := j.SyncTo(pos); !errors.Is(err, eio) {
		t.Fatalf("SyncTo after the disk recovered: %v, want the first failure", err)
	}
	if err := j.SyncTo(good); err != nil {
		t.Fatalf("SyncTo of a position fsynced before the failure: %v", err)
	}
	// Writes go on, and a rotation's fsync is refused too: the segment
	// stays active instead of being sealed undurable.
	var last int64
	for k := 0; j.size < 256; k++ {
		last = write(t, j, "j-"+string(rune('a'+k)))
	}
	if len(j.segIDs) != 1 || j.Durable() != good {
		t.Fatalf("rotation after a failed fsync: %d segments, durable %d", len(j.segIDs), j.Durable())
	}
	if err := j.SyncTo(last); !errors.Is(err, eio) {
		t.Fatalf("SyncTo of a later write: %v, want the first failure", err)
	}
	if err := j.Close(); !errors.Is(err, eio) {
		t.Fatalf("Close: %v, want the first failure", err)
	}
	if syncs.Load() != n || j.Durable() != good {
		t.Fatalf("%d fsyncs after the failure, durable %d; want none and %d", syncs.Load()-n, j.Durable(), good)
	}
	if _, err := j.Write(rec(OpStarted, "j-1", nil)); err != ErrClosed {
		t.Fatalf("Write after Close: %v, want ErrClosed", err)
	}
}

// TestSyncToQueuedBehindFailingLeader: callers queued behind a leader
// whose fsync fails all get its error, even though the disk would report
// success to a second fsync.
func TestSyncToQueuedBehindFailingLeader(t *testing.T) {
	j, syncs := openCounting(t, 0)
	gate := make(chan struct{})
	eio := errors.New("EIO")
	f := j.f.(*countingFile)
	j.f = &gatedFile{countingFile: f, gate: gate, entered: make(chan struct{}, 1), fail: eio}
	p1 := write(t, j, "j-1")
	errs := make(chan error, 3)
	go func() { errs <- j.SyncTo(p1) }()
	<-j.f.(*gatedFile).entered // the leader is inside its fsync
	p2, p3 := write(t, j, "j-2"), write(t, j, "j-3")
	for _, p := range []int64{p2, p3} {
		go func() { errs <- j.SyncTo(p) }()
	}
	time.Sleep(10 * time.Millisecond) // let both queue on the leader
	close(gate)
	for range 3 {
		if err := <-errs; !errors.Is(err, eio) {
			t.Errorf("SyncTo = %v, want the leader's failure", err)
		}
	}
	if n := syncs.Load(); n != 1 || j.Durable() != 0 {
		t.Fatalf("%d fsyncs, durable %d; want only the leader's and nothing durable", n, j.Durable())
	}
}

// gatedFile fails its first fsync, after blocking it until gate closes,
// and lets every later one through: the kernel reporting a writeback error
// once.
type gatedFile struct {
	*countingFile
	gate    chan struct{}
	entered chan struct{}
	fail    error
	once    sync.Once
}

func (f *gatedFile) Sync() error {
	first := false
	f.once.Do(func() { first = true })
	if !first {
		return f.countingFile.Sync()
	}
	f.entered <- struct{}{}
	<-f.gate
	f.syncs.Add(1)
	return f.fail
}
