package tilt

import (
	"context"
	"strconv"

	"repro/internal/pipeline"
	"repro/internal/tracing"
)

// Tracer re-exports the internal tracing subsystem's tracer so callers can
// trace client-side work without importing internal packages, mirroring
// MetricsRegistry. Spans started here propagate across processes: Remote
// injects the active span's traceparent into every linqd request, so the
// daemon's spans land in the same trace and Tracer.Trace (client side) plus
// GET /v1/traces/{job} (daemon side) assemble one stitched timeline.
type Tracer = tracing.Tracer

// TraceSpan is one timed operation in a trace. All methods are nil-safe, so
// instrumented code never branches on whether tracing is enabled.
type TraceSpan = tracing.Span

// SpanData is the exported wire form of a finished span.
type SpanData = tracing.SpanData

// NewTracer returns a tracer for the named service (e.g. "client") with a
// bounded in-memory trace store.
func NewTracer(service string) *Tracer { return tracing.New(service) }

// ContextWithSpan returns a context carrying the span as the active span;
// backends derive compile/simulate/per-pass child spans from it.
func ContextWithSpan(ctx context.Context, s *TraceSpan) context.Context {
	return tracing.ContextWithSpan(ctx, s)
}

// SpanFromContext returns the context's active span (nil when none; nil
// spans accept every Span method as a no-op).
func SpanFromContext(ctx context.Context) *TraceSpan { return tracing.FromContext(ctx) }

// passSpanObserver tees pass lifecycle events into child spans of the
// enclosing compile span, one per pass. One instance serves one
// core.CompileWith, whose observer calls are sequential, so the
// current-span field needs no lock.
type passSpanObserver struct {
	parent *tracing.Span
	cur    *tracing.Span
}

func (o *passSpanObserver) PassStarted(name string, index int) {
	o.cur = o.parent.StartChild("pass " + name)
}

func (o *passSpanObserver) PassFinished(t pipeline.PassTiming, err error) {
	s := o.cur
	o.cur = nil
	s.SetAttr("gates_before", strconv.Itoa(t.GatesBefore))
	s.SetAttr("gates_after", strconv.Itoa(t.GatesAfter))
	s.EndErr(err)
}
