// Package journal is the write-ahead job journal behind linqd's durability
// story: an append-only, length-prefixed, CRC-checksummed record log that
// internal/jobs writes every job state transition into, so a daemon killed
// mid-load can replay the log on restart and pick up exactly where it was —
// queued jobs re-queue, in-flight jobs re-run, terminal results survive.
//
// On disk a journal is a directory of segment files (linq-00000001.wal,
// linq-00000002.wal, ...). Each record is framed as
//
//	[4-byte little-endian payload length][4-byte CRC-32C of payload][payload]
//
// where the payload is the JSON encoding of a Record. Circuits and results
// inside records reuse the lossless Circuit.MarshalJSON / Result JSON wire
// forms, which are round-trip-tested and fuzz-covered elsewhere.
//
// Appends go to the active segment and are fsynced by default; when the
// active segment outgrows the configured size it is sealed and a new one
// started. Sealed segments whose every job has reached a terminal state —
// and whose loss cannot resurrect a job (the terminal record either lives
// in a later segment or the whole job is contained in the sealed one) —
// are deleted at rotation time (compaction).
//
// Replay tolerates a torn tail: a record cut short by a crash (or any
// frame whose checksum does not match) truncates the segment at the last
// intact record instead of failing, and a checksummed frame whose payload
// no longer parses is skipped. Replay never misparses garbage into a job.
package journal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/metrics"
)

// Op is the record type: one per job state transition.
type Op string

// The journal record vocabulary. Submitted carries the full job (circuit
// included); Started marks the execution handoff; Finalized and Cancelled
// are terminal and self-contained (they repeat the job's identity fields),
// so a terminal snapshot survives even after the segment holding its
// Submitted record is compacted away.
const (
	OpSubmitted Op = "submitted"
	OpStarted   Op = "started"
	OpFinalized Op = "finalized"
	OpCancelled Op = "cancelled"
)

// known reports whether the op belongs to the journal vocabulary.
func (o Op) known() bool {
	switch o {
	case OpSubmitted, OpStarted, OpFinalized, OpCancelled:
		return true
	}
	return false
}

// Terminal reports whether the op ends a job's lifecycle.
func (o Op) Terminal() bool { return o == OpFinalized || o == OpCancelled }

// Record is one journal entry. Which fields are meaningful depends on Op:
// Submitted fills the identity fields plus Circuit; Started needs only ID;
// Finalized/Cancelled repeat the identity fields and add State, Error, and
// (for done jobs) Result.
type Record struct {
	Op       Op     `json:"op"`
	ID       string `json:"id"`
	Tenant   string `json:"tenant,omitempty"`
	Name     string `json:"name,omitempty"`
	Backend  string `json:"backend,omitempty"`
	Priority int    `json:"priority,omitempty"`
	// Deduped records that the submission attached to an in-flight
	// identical circuit rather than queueing its own execution.
	Deduped bool `json:"deduped,omitempty"`
	// Submitted/Deadline are the job's submission time and TTL deadline
	// (zero deadline = no TTL).
	Submitted time.Time `json:"submitted,omitzero"`
	Deadline  time.Time `json:"deadline,omitzero"`
	Finished  time.Time `json:"finished,omitzero"`
	// Circuit is the Circuit.MarshalJSON wire form (Submitted records).
	Circuit json.RawMessage `json:"circuit,omitempty"`
	// State/Error/Result describe the terminal outcome (Finalized and
	// Cancelled records). Result is the Result JSON wire form, preserved
	// byte for byte so replayed results stay identical to what was served
	// before the crash.
	State  string          `json:"state,omitempty"`
	Error  string          `json:"error,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
}

// Framing constants.
const (
	headerBytes = 8 // 4-byte length + 4-byte CRC-32C
	// maxRecordBytes rejects absurd frame lengths during replay, so a
	// corrupt length field cannot make the reader allocate gigabytes. It
	// comfortably exceeds any real record (bounded by linqd's HTTP body
	// cap plus result overhead).
	maxRecordBytes = 64 << 20
)

// castagnoli is the CRC-32C table shared by writer and reader.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Sentinel errors.
var (
	// ErrClosed: the journal was closed; appends are refused.
	ErrClosed = errors.New("journal: closed")
	// ErrReplayed: Replay was called more than once for one Open.
	ErrReplayed = errors.New("journal: already replayed")
)

// Option configures a Journal.
type Option func(*Journal)

// WithSegmentBytes sets the rotation threshold: once the active segment
// exceeds n bytes the next append seals it and starts a fresh segment
// (default 4 MiB). Smaller segments compact sooner; tests use tiny ones.
func WithSegmentBytes(n int64) Option {
	return func(j *Journal) {
		if n > 0 {
			j.segBytes = n
		}
	}
}

// WithoutSync disables the per-append fsync. Appends then ride the OS page
// cache: much faster, but records written in the seconds before a hard
// crash may be lost (they still replay cleanly as a torn tail). Meant for
// tests and throwaway deployments.
func WithoutSync() Option {
	return func(j *Journal) { j.noSync = true }
}

// WithMetrics instruments the journal against the registry: append, fsync,
// and replay counters, torn-tail truncations, and segment/byte gauges.
// Without it (or with a nil registry) the journal books into a private
// registry.
func WithMetrics(r *metrics.Registry) Option {
	return func(j *Journal) { j.mx = newInstruments(r) }
}

// instruments holds the journal's pre-resolved metric handles.
type instruments struct {
	appends   *metrics.CounterVec // linq_journal_appends_total{op}
	fsyncs    *metrics.Counter    // linq_journal_fsyncs_total
	replayed  *metrics.CounterVec // linq_journal_replayed_total{op}
	truncated *metrics.Counter    // linq_journal_torn_tail_truncated_total
	skipped   *metrics.Counter    // linq_journal_records_skipped_total
	compacted *metrics.Counter    // linq_journal_segments_compacted_total
	segments  *metrics.Gauge      // linq_journal_segments
	bytes     *metrics.Gauge      // linq_journal_active_segment_bytes
}

// newInstruments resolves the journal's families in r; a nil registry
// means a private one.
func newInstruments(r *metrics.Registry) *instruments {
	if r == nil {
		r = metrics.NewRegistry()
	}
	return &instruments{
		appends: r.CounterVec("linq_journal_appends_total",
			"Records appended to the write-ahead job journal, by record op.", "op"),
		fsyncs: r.Counter("linq_journal_fsyncs_total",
			"fsync calls on the active journal segment."),
		replayed: r.CounterVec("linq_journal_replayed_total",
			"Records recovered during journal replay, by record op.", "op"),
		truncated: r.Counter("linq_journal_torn_tail_truncated_total",
			"Torn or corrupt journal tails truncated during replay."),
		skipped: r.Counter("linq_journal_records_skipped_total",
			"Intact journal frames skipped because their payload did not parse."),
		compacted: r.Counter("linq_journal_segments_compacted_total",
			"Fully-terminal journal segments deleted by compaction."),
		segments: r.Gauge("linq_journal_segments",
			"Journal segment files currently on disk."),
		bytes: r.Gauge("linq_journal_active_segment_bytes",
			"Size of the active journal segment."),
	}
}

// jobSpan tracks where one job's records live, for compaction safety.
type jobSpan struct {
	firstSeg int // segment of the first record mentioning the job
	termSeg  int // segment of the terminal record, 0 while live
}

// Journal is an open write-ahead journal. Create one with Open; all
// methods are safe for concurrent use.
type Journal struct {
	dir      string
	segBytes int64
	noSync   bool
	mx       *instruments

	mu     sync.Mutex
	f      *os.File
	seq    int   // active segment sequence number
	size   int64 // active segment size in bytes
	closed bool

	// replayable holds the records recovered by Open until Replay drains
	// them (nil afterwards, and for fresh journals).
	replayable []Record
	replayed   bool

	// spans and segIDs drive compaction: which segments mention which
	// jobs, and where each job's records start and end.
	spans  map[string]*jobSpan
	segIDs map[int]map[string]bool
	buf    []byte // append scratch, reused under mu
}

// Open opens (or creates) the journal directory, scans the existing
// segments — truncating any torn tail in place — and starts a fresh active
// segment. The recovered records are held for one Replay call.
func Open(dir string, opts ...Option) (*Journal, error) {
	j := &Journal{
		dir:      dir,
		segBytes: 4 << 20,
		mx:       newInstruments(nil),
		spans:    make(map[string]*jobSpan),
		segIDs:   make(map[int]map[string]bool),
	}
	for _, o := range opts {
		o(j)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	seqs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	last := 0
	for _, seq := range seqs {
		recs, err := j.scanSegment(seq)
		if err != nil {
			return nil, err
		}
		for _, rec := range recs {
			j.trackLocked(seq, rec)
		}
		j.replayable = append(j.replayable, recs...)
		last = seq
	}
	j.seq = last + 1
	f, err := os.OpenFile(j.segmentPath(j.seq), os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	j.f = f
	j.segIDs[j.seq] = make(map[string]bool)
	j.mx.segments.Set(float64(len(seqs) + 1))
	j.mx.bytes.Set(0)
	return j, nil
}

// Dir returns the journal directory.
func (j *Journal) Dir() string { return j.dir }

// Replay streams every record recovered by Open, oldest first, and frees
// the recovery buffer. It must be called at most once, before the journal
// is handed to writers; a fresh journal replays zero records. If fn
// returns an error, Replay stops and returns it.
func (j *Journal) Replay(fn func(Record) error) error {
	j.mu.Lock()
	if j.replayed {
		j.mu.Unlock()
		return ErrReplayed
	}
	j.replayed = true
	recs := j.replayable
	j.replayable = nil
	j.mu.Unlock()
	for _, rec := range recs {
		j.mx.replayed.With(string(rec.Op)).Inc()
		if err := fn(rec); err != nil {
			return err
		}
	}
	return nil
}

// Append durably writes one record: frame, write, fsync (unless disabled),
// rotating and compacting segments as needed. It returns once the record
// is on disk, which is what makes a 202 Accepted a promise the daemon can
// keep across kill -9.
func (j *Journal) Append(rec Record) error {
	if !rec.Op.known() {
		return fmt.Errorf("journal: unknown op %q", rec.Op)
	}
	if rec.ID == "" {
		return fmt.Errorf("journal: record without a job ID")
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("journal: marshal record: %w", err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	j.buf = j.buf[:0]
	j.buf = binary.LittleEndian.AppendUint32(j.buf, uint32(len(payload)))
	j.buf = binary.LittleEndian.AppendUint32(j.buf, crc32.Checksum(payload, castagnoli))
	j.buf = append(j.buf, payload...)
	if _, err := j.f.Write(j.buf); err != nil {
		return fmt.Errorf("journal: append: %w", err)
	}
	j.size += int64(len(j.buf))
	if !j.noSync {
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("journal: fsync: %w", err)
		}
		j.mx.fsyncs.Inc()
	}
	j.trackLocked(j.seq, rec)
	j.mx.appends.With(string(rec.Op)).Inc() //lint:lockorder-exempt Journal.mu is the outer lock; metrics family.mu is a leaf never held across journal calls
	j.mx.bytes.Set(float64(j.size))
	if j.size >= j.segBytes {
		if err := j.rotateLocked(); err != nil {
			return err
		}
	}
	return nil
}

// Sync forces an fsync of the active segment (a no-op amortizer for
// WithoutSync journals that still want occasional durability points).
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal: fsync: %w", err)
	}
	j.mx.fsyncs.Inc()
	return nil
}

// Checkpoint rewrites the journal as the given records: they are appended
// to the active segment (fsynced once at the end), then every previous
// segment is deleted. The manager calls this right after recovery with the
// surviving state — live jobs as Submitted records, retained terminal
// snapshots as Finalized/Cancelled records — so the journal shrinks back
// to its live set on every restart instead of replaying history forever.
// A crash mid-checkpoint is safe: replay applies records in order, and the
// checkpoint's records restate (never contradict) the surviving state.
func (j *Journal) Checkpoint(recs []Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	j.buf = j.buf[:0]
	for _, rec := range recs {
		if !rec.Op.known() || rec.ID == "" {
			return fmt.Errorf("journal: checkpoint: bad record %q/%q", rec.Op, rec.ID)
		}
		payload, err := json.Marshal(rec)
		if err != nil {
			return fmt.Errorf("journal: checkpoint: %w", err)
		}
		j.buf = binary.LittleEndian.AppendUint32(j.buf, uint32(len(payload)))
		j.buf = binary.LittleEndian.AppendUint32(j.buf, crc32.Checksum(payload, castagnoli))
		j.buf = append(j.buf, payload...)
	}
	if len(j.buf) > 0 {
		if _, err := j.f.Write(j.buf); err != nil {
			return fmt.Errorf("journal: checkpoint: %w", err)
		}
		j.size += int64(len(j.buf))
	}
	if !j.noSync {
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("journal: fsync: %w", err)
		}
		j.mx.fsyncs.Inc()
	}
	// The checkpoint supersedes all history: reset the tracking state to
	// the checkpointed records alone, then drop the old segments.
	j.spans = make(map[string]*jobSpan)
	j.segIDs = map[int]map[string]bool{j.seq: make(map[string]bool)}
	for _, rec := range recs {
		j.trackLocked(j.seq, rec)
		j.mx.appends.With(string(rec.Op)).Inc()
	}
	removed := 0
	for seq := 1; seq < j.seq; seq++ {
		path := j.segmentPath(seq)
		if err := os.Remove(path); err == nil {
			removed++
		} else if !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("journal: checkpoint: %w", err)
		}
	}
	j.mx.compacted.Add(int64(removed))
	j.mx.segments.Set(1)
	j.mx.bytes.Set(float64(j.size))
	return nil
}

// Close seals the journal. Further appends return ErrClosed.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	var err error
	if !j.noSync {
		err = j.f.Sync()
	}
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Segments returns the sequence numbers of the segment files currently on
// disk, sorted ascending (tests and operators use it; the write path keeps
// its own state).
func (j *Journal) Segments() ([]int, error) {
	return listSegments(j.dir)
}

// trackLocked books one record into the compaction-tracking state.
func (j *Journal) trackLocked(seg int, rec Record) {
	ids := j.segIDs[seg]
	if ids == nil {
		ids = make(map[string]bool)
		j.segIDs[seg] = ids
	}
	ids[rec.ID] = true
	sp := j.spans[rec.ID]
	if sp == nil {
		sp = &jobSpan{firstSeg: seg}
		j.spans[rec.ID] = sp
	}
	if rec.Op.Terminal() {
		sp.termSeg = seg
	} else if sp.termSeg != 0 {
		// The job came back to life (a checkpoint restated it, or a replayed
		// queued record follows an old terminal record): it is live again.
		sp.termSeg = 0
		sp.firstSeg = seg
	}
}

// rotateLocked seals the active segment, starts the next one, and compacts
// sealed segments that can no longer matter to replay.
func (j *Journal) rotateLocked() error {
	if !j.noSync {
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("journal: fsync: %w", err)
		}
		j.mx.fsyncs.Inc()
	}
	if err := j.f.Close(); err != nil {
		return fmt.Errorf("journal: rotate: %w", err)
	}
	j.seq++
	f, err := os.OpenFile(j.segmentPath(j.seq), os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("journal: rotate: %w", err)
	}
	j.f = f
	j.size = 0
	j.segIDs[j.seq] = make(map[string]bool)
	j.compactLocked()
	j.mx.segments.Set(float64(len(j.segIDs)))
	j.mx.bytes.Set(0)
	return nil
}

// compactLocked deletes sealed segments that replay can safely live
// without: every job mentioned in the segment is terminal, and losing the
// segment cannot resurrect one — either the job's terminal record lives in
// a later segment (so replay still sees it finish) or the job is wholly
// contained in this segment (so it vanishes, result and all, exactly like
// an LRU eviction from the bounded result store).
func (j *Journal) compactLocked() {
	seqs := make([]int, 0, len(j.segIDs))
	for seq := range j.segIDs {
		if seq != j.seq {
			seqs = append(seqs, seq)
		}
	}
	sort.Ints(seqs)
	for _, seq := range seqs {
		removable := true
		for id := range j.segIDs[seq] {
			sp := j.spans[id]
			if sp == nil || sp.termSeg == 0 || !(sp.termSeg > seq || sp.firstSeg == seq) {
				removable = false
				break
			}
		}
		if !removable {
			continue
		}
		if err := os.Remove(j.segmentPath(seq)); err != nil && !errors.Is(err, os.ErrNotExist) {
			continue // try again at the next rotation
		}
		for id := range j.segIDs[seq] {
			sp := j.spans[id]
			if sp == nil {
				continue
			}
			if sp.firstSeg == seq && sp.termSeg == seq {
				delete(j.spans, id)
				continue
			}
			if sp.firstSeg == seq {
				// The job's earliest surviving records now live in a later
				// segment; advance firstSeg so that segment becomes wholly
				// responsible for the job and can itself compact once the
				// job has no earlier history left. Without this, a segment
				// holding a terminal record whose submission was compacted
				// away is pinned forever.
				sp.firstSeg = j.seq
				for s, ids := range j.segIDs {
					if s != seq && s < sp.firstSeg && ids[id] {
						sp.firstSeg = s
					}
				}
			}
		}
		delete(j.segIDs, seq)
		j.mx.compacted.Inc()
	}
}

// segmentPath renders the file name of segment seq.
func (j *Journal) segmentPath(seq int) string {
	return filepath.Join(j.dir, fmt.Sprintf("linq-%08d.wal", seq))
}

// listSegments returns the segment sequence numbers present in dir, sorted.
func listSegments(dir string) ([]int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	var seqs []int
	for _, e := range entries {
		var seq int
		if n, err := fmt.Sscanf(e.Name(), "linq-%d.wal", &seq); n == 1 && err == nil && seq > 0 {
			seqs = append(seqs, seq)
		}
	}
	sort.Ints(seqs)
	return seqs, nil
}

// scanSegment reads every intact record of segment seq and truncates the
// file at the first torn or corrupt frame, so the next writer (and the
// next replay) sees a clean tail.
func (j *Journal) scanSegment(seq int) ([]Record, error) {
	path := j.segmentPath(seq)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	recs, good, skipped := ScanRecords(data)
	if good < int64(len(data)) {
		if err := os.Truncate(path, good); err != nil {
			return nil, fmt.Errorf("journal: truncate torn tail of %s: %w", path, err)
		}
		j.mx.truncated.Inc()
	}
	j.mx.skipped.Add(int64(skipped))
	return recs, nil
}

// ScanRecords parses one segment's raw bytes. It returns the intact
// records, the byte offset of the last intact frame (everything past it is
// a torn or corrupt tail the caller should truncate), and how many intact
// frames were skipped because their payload was not a valid record. It
// never panics, whatever the input — the FuzzJournalReplay target holds it
// to that.
func ScanRecords(data []byte) (recs []Record, goodBytes int64, skipped int) {
	off := 0
	for {
		if len(data)-off < headerBytes {
			return recs, int64(off), skipped // clean end or torn header
		}
		length := int(binary.LittleEndian.Uint32(data[off : off+4]))
		sum := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if length <= 0 || length > maxRecordBytes || len(data)-off-headerBytes < length {
			return recs, int64(off), skipped // corrupt length or torn payload
		}
		payload := data[off+headerBytes : off+headerBytes+length]
		if crc32.Checksum(payload, castagnoli) != sum {
			return recs, int64(off), skipped // corrupt payload
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil || !rec.Op.known() || rec.ID == "" {
			// The frame is intact (the writer's checksum matches) but the
			// payload is not a record we understand: skip it rather than
			// guessing, and keep scanning — framing is self-synchronizing.
			skipped++
		} else {
			recs = append(recs, rec)
		}
		off += headerBytes + length
	}
}

// ReadSegment replays one segment file without opening a Journal — the
// offline inspection path (and the golden-file tests').
func ReadSegment(path string) ([]Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	recs, _, _ := ScanRecords(data)
	return recs, nil
}

// AppendTo frames one record onto w — the test helper writers (golden file
// and corpus generators) share the production framing.
func AppendTo(w io.Writer, rec Record) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	var hdr [headerBytes]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(payload, castagnoli))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err = w.Write(payload)
	return err
}
