// Package clean registers metrics the sanctioned way and must produce no
// metriclint diagnostics.
package clean

import "metrics"

// familyJobs shows that constant-expression names are fine.
const familyJobs = "linq_jobs_total"

func register(r *metrics.Registry, backend string) {
	r.Counter("linq_compiles_total", "compiles")
	r.Gauge("linq_jobs_queue_depth", "queue depth")
	r.Histogram("linq_compile_seconds", "latency", nil)

	// The observability subsystems are first-class vocabulary.
	r.Counter("linq_trace_spans_finished_total", "finished spans")
	r.Counter("linq_events_dropped_total", "dropped SSE frames")

	// Get-or-create: re-registering the same name with the same kind and
	// schema is the documented lookup idiom.
	v := r.CounterVec(familyJobs, "jobs", "backend", "status")
	v = r.CounterVec(familyJobs, "jobs", "backend", "status")

	// Label values from a bounded vocabulary (variables, constants).
	v.With(backend, "done").Inc()
	v.With(backend, statusLabel(2)).Inc()
}

// statusLabel maps to a fixed vocabulary — formatting happens nowhere near
// the With call.
func statusLabel(class int) string {
	switch class {
	case 2:
		return "2xx"
	case 4:
		return "4xx"
	default:
		return "5xx"
	}
}

// instruments is an instrument holder; server is not (it has a non-handle
// field), and a *metrics.Registry is not a holder either.
type instruments struct {
	hits *metrics.Counter
}

type server struct {
	name string
	hits *metrics.Counter
}

// newInstruments resolves a nil registry to a private one: nil checks on
// the registry are how constructors pick it.
func newInstruments(r *metrics.Registry) *instruments {
	if r == nil {
		r = metrics.NewRegistry()
	}
	return &instruments{hits: r.Counter("linq_jobs_hits_total", "hits")}
}

func serve(s *server, mx *instruments) {
	if s != nil {
		s.hits.Inc()
	}
	mx.hits.Inc()
}
