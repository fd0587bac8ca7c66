// Package tracing is a dependency-free distributed-tracing subsystem for
// the LinQ serving stack: spans with IDs, parent links, attributes, and
// timestamped events; context propagation helpers; W3C-style traceparent
// encoding for crossing process boundaries; a bounded in-memory trace store
// for serving GET /v1/traces/{id}; and a structured-JSON exporter for
// shipping finished spans to logs or files.
//
// It is distinct from internal/render, which renders tape schedules — this
// package answers "where did job X spend its 800ms" across the client, the
// HTTP layer, the queue, and every compiler pass.
//
// The zero cost path matters: every Span method is nil-receiver-safe, so
// call sites instrument unconditionally and a disabled tracer (or a context
// without a span) makes the whole surface a no-op.
package tracing

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// SpanContext is the propagatable identity of a span: the trace it belongs
// to and its own ID. The zero value is "no span".
type SpanContext struct {
	TraceID string `json:"trace_id"`
	SpanID  string `json:"span_id"`
}

// Valid reports whether the context names a real span: a 32-hex-digit trace
// ID and a 16-hex-digit span ID, neither all-zero.
func (sc SpanContext) Valid() bool {
	return validHexID(sc.TraceID, 32) && validHexID(sc.SpanID, 16)
}

func validHexID(s string, n int) bool {
	if len(s) != n {
		return false
	}
	zero := true
	for _, c := range s {
		switch {
		case c >= '0' && c <= '9':
			if c != '0' {
				zero = false
			}
		case c >= 'a' && c <= 'f':
			zero = false
		default:
			return false
		}
	}
	return !zero
}

// Traceparent renders the context as a W3C trace-context header value
// (version 00, sampled flag set): 00-<trace-id>-<span-id>-01.
func (sc SpanContext) Traceparent() string {
	if !sc.Valid() {
		return ""
	}
	return "00-" + sc.TraceID + "-" + sc.SpanID + "-01"
}

// ParseTraceparent decodes a W3C traceparent header value. Unknown
// versions, malformed fields, and all-zero IDs return ok=false — a bad
// header never breaks a request, it just starts a fresh trace.
func ParseTraceparent(h string) (SpanContext, bool) {
	parts := strings.Split(strings.TrimSpace(h), "-")
	if len(parts) < 4 || parts[0] != "00" {
		return SpanContext{}, false
	}
	sc := SpanContext{TraceID: parts[1], SpanID: parts[2]}
	if len(parts[3]) != 2 || !sc.Valid() {
		return SpanContext{}, false
	}
	return sc, true
}

// Annotation is one timestamped event on a span.
type Annotation struct {
	Time time.Time `json:"time"`
	Msg  string    `json:"msg"`
}

// Span is one timed operation in a trace. Create spans with
// Tracer.StartRoot / Tracer.StartRemote / Span.StartChild / StartSpan and
// finish them with End (or EndErr). All methods are safe on a nil receiver
// and safe for concurrent use, so instrumentation sites never branch on
// whether tracing is enabled.
type Span struct {
	tracer *Tracer

	mu     sync.Mutex
	data   SpanData
	ended  bool
	childN atomic.Int64 // children started under this span (for attrs/tests)
}

// SpanData is the exported wire form of a finished span — what the store
// returns, the JSON exporter writes, and /v1/traces/{id} serves.
type SpanData struct {
	SpanContext
	// ParentID is the parent span's ID ("" for a trace root). The parent
	// may live in another process: a daemon-side root parents to the
	// client-side span that carried the traceparent header.
	ParentID string `json:"parent_id,omitempty"`
	// Name says what the span timed ("compile", "pass insert-swaps", ...).
	Name string `json:"name"`
	// Service is the emitting tracer's service name ("client", "linqd").
	Service string            `json:"service"`
	Start   time.Time         `json:"start"`
	End     time.Time         `json:"end"`
	Attrs   map[string]string `json:"attrs,omitempty"`
	Events  []Annotation      `json:"events,omitempty"`
	// Error is the failure the span ended with ("" on success).
	Error string `json:"error,omitempty"`
}

// Duration returns End − Start (0 while the span is live).
func (d SpanData) Duration() time.Duration {
	if d.End.IsZero() {
		return 0
	}
	return d.End.Sub(d.Start)
}

// Context returns the span's propagatable identity (zero for nil spans).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.data.SpanContext
}

// Traceparent renders the span as an outgoing traceparent header value
// ("" for nil spans), the injection half of cross-process propagation.
func (s *Span) Traceparent() string { return s.Context().Traceparent() }

// SetAttr sets a string attribute on the span.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return
	}
	if s.data.Attrs == nil {
		s.data.Attrs = make(map[string]string, 4)
	}
	s.data.Attrs[key] = value
}

// Annotate appends a timestamped event to the span.
func (s *Span) Annotate(msg string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return
	}
	s.data.Events = append(s.data.Events, Annotation{Time: time.Now(), Msg: msg})
}

// StartChild starts a child span in the same trace. On a nil receiver it
// returns nil, so instrumentation chains stay unconditional.
func (s *Span) StartChild(name string) *Span {
	if s == nil || s.tracer == nil {
		return nil
	}
	s.childN.Add(1)
	return s.tracer.start(name, s.data.TraceID, s.data.SpanID)
}

// End finishes the span: stamps the end time and hands it to the tracer's
// store and exporter. Ending twice (or ending a nil span) is a no-op.
func (s *Span) End() { s.EndErr(nil) }

// EndErr finishes the span, recording err as the span's failure when
// non-nil.
func (s *Span) EndErr(err error) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.data.End = time.Now()
	if err != nil {
		s.data.Error = err.Error()
	}
	data := s.snapshotLocked()
	s.mu.Unlock()
	if s.tracer != nil {
		s.tracer.finish(data)
	}
}

// snapshotLocked deep-copies the span data so the stored/exported form
// never aliases the live span's maps and slices.
func (s *Span) snapshotLocked() SpanData {
	data := s.data
	if len(s.data.Attrs) > 0 {
		data.Attrs = make(map[string]string, len(s.data.Attrs))
		for k, v := range s.data.Attrs {
			data.Attrs[k] = v
		}
	}
	data.Events = append([]Annotation(nil), s.data.Events...)
	return data
}

// Exporter receives every finished span. Implementations must be safe for
// concurrent use; they run on the ending goroutine, so they should be fast
// (buffer or fan out internally if not).
type Exporter interface {
	ExportSpan(d SpanData)
}

// Tracer creates spans for one service and retains finished spans in a
// bounded in-memory store, grouped by trace. All methods are safe for
// concurrent use; a nil *Tracer is a valid "tracing disabled" tracer whose
// every operation no-ops.
type Tracer struct {
	service   string
	maxTraces int
	maxSpans  int
	exporter  Exporter

	mu     sync.Mutex
	traces map[string]*storedTrace
	order  []string // trace IDs in first-seen order, for FIFO eviction

	mx *instruments
}

// storedTrace is the retained spans of one trace.
type storedTrace struct {
	spans   []SpanData
	dropped int // spans beyond maxSpans
}

// instruments are the tracer's own telemetry handles (linq_trace_*).
type instruments struct {
	finished *metrics.CounterVec // linq_trace_spans_finished_total{service}
	dropped  *metrics.Counter    // linq_trace_spans_dropped_total
	evicted  *metrics.Counter    // linq_trace_evicted_total
	stored   *metrics.Gauge      // linq_trace_stored_traces
}

// Option configures a Tracer.
type Option func(*Tracer)

// WithMaxTraces bounds the in-memory store to n traces (default 512);
// the oldest trace is evicted first.
func WithMaxTraces(n int) Option {
	return func(t *Tracer) {
		if n > 0 {
			t.maxTraces = n
		}
	}
}

// WithMaxSpans bounds the spans retained per trace (default 1024); spans
// beyond the bound are counted but not stored, so one runaway trace cannot
// hold the store hostage.
func WithMaxSpans(n int) Option {
	return func(t *Tracer) {
		if n > 0 {
			t.maxSpans = n
		}
	}
}

// WithExporter ships every finished span to e in addition to the store.
func WithExporter(e Exporter) Option {
	return func(t *Tracer) { t.exporter = e }
}

// WithMetrics instruments the tracer against the registry: finished-span
// and dropped-span counters and the stored-trace gauge, under the
// linq_trace_* families. Without it (or with a nil registry) the tracer
// books into a private registry.
func WithMetrics(r *metrics.Registry) Option {
	return func(t *Tracer) { t.mx = newInstruments(r) }
}

// newInstruments resolves the tracer's families in r; a nil registry means
// a private one.
func newInstruments(r *metrics.Registry) *instruments {
	if r == nil {
		r = metrics.NewRegistry()
	}
	return &instruments{
		finished: r.CounterVec("linq_trace_spans_finished_total",
			"Spans finished, by emitting service.", "service"),
		dropped: r.Counter("linq_trace_spans_dropped_total",
			"Finished spans dropped because their trace hit the per-trace span bound."),
		evicted: r.Counter("linq_trace_evicted_total",
			"Traces evicted from the bounded in-memory store."),
		stored: r.Gauge("linq_trace_stored_traces",
			"Traces currently retained in the in-memory store."),
	}
}

// New returns a tracer for the named service ("linqd", "client", ...).
func New(service string, opts ...Option) *Tracer {
	t := &Tracer{
		service:   service,
		maxTraces: 512,
		maxSpans:  1024,
		traces:    make(map[string]*storedTrace),
		mx:        newInstruments(nil),
	}
	for _, o := range opts {
		o(t)
	}
	return t
}

// Service returns the tracer's service name ("" for a nil tracer).
func (t *Tracer) Service() string {
	if t == nil {
		return ""
	}
	return t.service
}

// StartRoot starts a span at the root of a brand-new trace. Returns nil on
// a nil tracer.
func (t *Tracer) StartRoot(name string) *Span {
	if t == nil {
		return nil
	}
	return t.start(name, newID(16), "")
}

// StartRemote starts a span continuing a trace begun in another process:
// same trace ID, parented to the remote span — the extraction half of
// traceparent propagation. An invalid parent starts a fresh trace instead.
func (t *Tracer) StartRemote(name string, parent SpanContext) *Span {
	if t == nil {
		return nil
	}
	if !parent.Valid() {
		return t.StartRoot(name)
	}
	return t.start(name, parent.TraceID, parent.SpanID)
}

func (t *Tracer) start(name, traceID, parentID string) *Span {
	return &Span{
		tracer: t,
		data: SpanData{
			SpanContext: SpanContext{TraceID: traceID, SpanID: newID(8)},
			ParentID:    parentID,
			Name:        name,
			Service:     t.service,
			Start:       time.Now(),
		},
	}
}

// finish stores and exports one finished span.
func (t *Tracer) finish(d SpanData) {
	t.mu.Lock()
	tr := t.traces[d.TraceID]
	if tr == nil {
		tr = &storedTrace{}
		t.traces[d.TraceID] = tr
		t.order = append(t.order, d.TraceID)
		if len(t.order) > t.maxTraces {
			evict := t.order[0]
			t.order = t.order[1:]
			delete(t.traces, evict)
			t.mx.evicted.Inc()
		}
		t.mx.stored.Set(float64(len(t.order)))
	}
	if len(tr.spans) >= t.maxSpans {
		tr.dropped++
		t.mu.Unlock()
		t.mx.dropped.Inc()
		return
	}
	tr.spans = append(tr.spans, d)
	t.mu.Unlock()
	t.mx.finished.With(t.service).Inc()
	if t.exporter != nil {
		t.exporter.ExportSpan(d)
	}
}

// Trace returns the stored finished spans of one trace, sorted by start
// time (ties by span ID so the order is stable). The second return is
// false when the store holds nothing for the ID — never seen, or already
// evicted. Returns copies; mutating them cannot corrupt the store.
func (t *Tracer) Trace(id string) ([]SpanData, bool) {
	if t == nil {
		return nil, false
	}
	t.mu.Lock()
	tr := t.traces[id]
	var spans []SpanData
	if tr != nil {
		spans = append([]SpanData(nil), tr.spans...)
	}
	t.mu.Unlock()
	if tr == nil {
		return nil, false
	}
	sort.Slice(spans, func(i, j int) bool {
		if !spans[i].Start.Equal(spans[j].Start) {
			return spans[i].Start.Before(spans[j].Start)
		}
		return spans[i].SpanID < spans[j].SpanID
	})
	return spans, true
}

// Len returns the number of traces currently stored.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.traces)
}

// ctxKey keys the active span in a context.
type ctxKey int

const spanCtxKey ctxKey = iota

// ContextWithSpan returns a context carrying the span as the active span.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey, s)
}

// FromContext returns the context's active span (nil when tracing is off or
// no span was attached — safe to call methods on either way).
func FromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanCtxKey).(*Span)
	return s
}

// StartSpan starts a child of the context's active span and returns a
// context with the child active. With no active span it returns (ctx, nil):
// callers end the nil span harmlessly.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	child := FromContext(ctx).StartChild(name)
	if child == nil {
		return ctx, nil
	}
	return ContextWithSpan(ctx, child), child
}

// JSONExporter writes each finished span as one line of JSON (the SpanData
// wire form) — the structured export path for shipping traces into log
// pipelines. Safe for concurrent use; write errors are counted and then
// ignored so a full disk never breaks serving.
type JSONExporter struct {
	mu     sync.Mutex
	w      io.Writer
	failed atomic.Int64
}

// NewJSONExporter returns an exporter writing to w.
func NewJSONExporter(w io.Writer) *JSONExporter {
	return &JSONExporter{w: w}
}

// ExportSpan implements Exporter.
func (e *JSONExporter) ExportSpan(d SpanData) {
	b, err := json.Marshal(d)
	if err != nil {
		e.failed.Add(1)
		return
	}
	b = append(b, '\n')
	e.mu.Lock()
	_, err = e.w.Write(b)
	e.mu.Unlock()
	if err != nil {
		e.failed.Add(1)
	}
}

// Failed reports how many spans could not be written.
func (e *JSONExporter) Failed() int64 { return e.failed.Load() }

// idCounter backs the fallback ID stream if crypto/rand ever fails.
var idCounter atomic.Uint64

// newID returns n random bytes hex-encoded (2n digits), never all-zero.
func newID(n int) string {
	b := make([]byte, n)
	if _, err := rand.Read(b); err != nil {
		// Entropy exhaustion is effectively unreachable on the supported
		// platforms; a monotonic fallback keeps IDs unique per process.
		return fmt.Sprintf("%0*x", 2*n, idCounter.Add(1))
	}
	zero := true
	for _, c := range b {
		if c != 0 {
			zero = false
			break
		}
	}
	if zero {
		b[n-1] = 1
	}
	return hex.EncodeToString(b)
}
