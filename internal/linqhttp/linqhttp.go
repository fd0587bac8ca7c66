// Package linqhttp is the HTTP layer of the linqd daemon: the job
// submission/lifecycle/result API over a jobs.Manager, plus the metrics,
// health, and backend-discovery endpoints. It lives outside cmd/linqd so
// tests (and embedders) can mount the same API on an httptest server that
// the tilt.Remote client backend talks to.
package linqhttp

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	tilt "repro"
	"repro/internal/jobs"
	"repro/internal/lru"
	"repro/internal/metrics"
	"repro/internal/qasm"
	"repro/internal/tenant"
	"repro/internal/tracing"
	"repro/internal/workloads"
)

// maxBodyBytes bounds a submission body (QASM source or JSON circuit
// included).
const maxBodyBytes = 8 << 20

// The intake cache holds the decoded circuits of the last few distinct
// "circuit" fields, so a burst of identical submissions decodes,
// fingerprints and journal-encodes its body once. A burst has at most a
// couple of distinct bodies in flight; larger fields are decoded every
// time, which bounds the cache's memory. The cache is shared by all
// tenants, as dedup and the compile cache already are.
const (
	intakeCacheEntries = 16
	maxCachedCircuit   = 256 << 10
)

// maxResultWait caps the daemon-side blocking ?wait= on a result fetch, so
// a client cannot pin a handler goroutine for hours.
const maxResultWait = 60 * time.Second

// eventsBuffer is the per-subscriber event channel depth behind
// GET /v1/events; a client more than this many frames behind loses the
// overflow (and can re-sync any job it cares about from GET /v1/jobs/{id}).
const eventsBuffer = 256

// eventsHeartbeat paces SSE keep-alive comments so idle streams survive
// proxies and dead clients are detected by the write failing.
const eventsHeartbeat = 15 * time.Second

// Machine-readable error codes carried in the "code" field of error
// responses, so clients (the Remote backend, Pool breakers) can branch
// without parsing prose.
const (
	CodeBadRequest     = "bad_request"
	CodeParseError     = "parse_error"
	CodeUnknownBackend = "unknown_backend"
	CodeShuttingDown   = "shutting_down"
	CodeNotFound       = "not_found"
	CodeNotReady       = "not_ready"
	CodeTerminal       = "terminal"
	CodeInternal       = "internal"
	CodeUnauthorized   = "unauthorized"
	CodeForbidden      = "forbidden"
	CodeRateLimited    = "rate_limited"
	CodeQuotaExceeded  = "quota_exceeded"
)

// Version reports the daemon's build version: the main module version
// stamped by the Go toolchain, or "devel" when building from a working
// tree without version info. The build info is immutable for the process
// lifetime, so it is parsed once, not per health probe.
var Version = sync.OnceValue(func() string {
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" && bi.Main.Version != "(devel)" {
		return bi.Main.Version
	}
	return "devel"
})

// Server wires the job manager and the metrics registry into HTTP
// handlers. Create one with NewServer and mount Routes.
type Server struct {
	mgr     *jobs.Manager
	reg     *tilt.MetricsRegistry
	tenants *tenant.Registry // nil = open deployment, no auth
	tracer  *tracing.Tracer  // nil = tracing off
	logger  *slog.Logger     // nil = no access log
	start   time.Time
	mx      instruments
	// intakes maps the SHA-256 of a "circuit" field to its decoded intake.
	intakes *lru.Cache[[sha256.Size]byte, *jobs.Intake]
}

// instruments holds the server's pre-resolved metric handles.
type instruments struct {
	requests *metrics.CounterVec // linq_http_requests_total{route,code,tenant}
	authFail *metrics.CounterVec // linq_tenant_auth_failures_total{reason}
	throttle *metrics.CounterVec // linq_tenant_throttled_total{tenant}

	intakeHits   *metrics.Counter // linq_http_intake_cache_hits_total
	intakeMisses *metrics.Counter // linq_http_intake_cache_misses_total
}

// ServerOption configures a Server.
type ServerOption func(*Server)

// WithTenantAuth turns on multi-tenancy: every /v1/jobs route requires an
// API key from the registry (Authorization: Bearer <key> or X-API-Key),
// submissions are rate limited per tenant (429 + Retry-After), job
// visibility is scoped to the owning tenant, and the request metrics carry
// the tenant label.
func WithTenantAuth(reg *tenant.Registry) ServerOption {
	return func(s *Server) { s.tenants = reg }
}

// WithTracer turns on request tracing: every API request gets a span (the
// extraction point for incoming W3C traceparent headers, so client-side
// traces stitch through), submissions link their job spans under it, and
// GET /v1/traces/{id} serves a job's assembled trace from this tracer's
// store. Share the tracer with jobs.WithTracer so daemon-side spans land in
// one store.
func WithTracer(t *tracing.Tracer) ServerOption {
	return func(s *Server) { s.tracer = t }
}

// WithLogger turns on structured access logging: one record per API
// request carrying route, method, status, tenant, trace ID, and duration,
// plus a record per accepted submission carrying the job ID.
func WithLogger(l *slog.Logger) ServerOption {
	return func(s *Server) { s.logger = l }
}

// NewServer returns the HTTP layer over the manager, instrumenting every
// request into the registry.
func NewServer(mgr *jobs.Manager, reg *tilt.MetricsRegistry, opts ...ServerOption) *Server {
	s := &Server{
		mgr:   mgr,
		reg:   reg,
		start: time.Now(),
		mx: instruments{
			requests: reg.CounterVec("linq_http_requests_total",
				"HTTP requests served, by route, status code, and tenant.", "route", "code", "tenant"),
			authFail: reg.CounterVec("linq_tenant_auth_failures_total",
				"Requests refused by tenant authentication, by reason.", "reason"),
			throttle: reg.CounterVec("linq_tenant_throttled_total",
				"Submissions deferred by a tenant's rate limit.", "tenant"),
			intakeHits: reg.Counter("linq_http_intake_cache_hits_total",
				"Submitted circuits served decoded from the intake cache."),
			intakeMisses: reg.Counter("linq_http_intake_cache_misses_total",
				"Submitted circuits decoded from the request body."),
		},
		intakes: lru.New[[sha256.Size]byte, *jobs.Intake](intakeCacheEntries),
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

// countRequest books one served request into linq_http_requests_total.
func (s *Server) countRequest(r *http.Request, route string, code int) {
	s.mx.requests.With(route, statusLabel(code), tenant.Label(tenantID(r))).Inc()
}

// statusLabel maps an HTTP status onto a fixed label vocabulary: the exact
// code for the statuses the daemon emits, the class bucket for anything
// else, keeping the code label's cardinality bounded.
func statusLabel(code int) string {
	switch code {
	case http.StatusOK:
		return "200"
	case http.StatusAccepted:
		return "202"
	case http.StatusNoContent:
		return "204"
	case http.StatusBadRequest:
		return "400"
	case http.StatusUnauthorized:
		return "401"
	case http.StatusForbidden:
		return "403"
	case http.StatusNotFound:
		return "404"
	case http.StatusConflict:
		return "409"
	case http.StatusTooManyRequests:
		return "429"
	case http.StatusServiceUnavailable:
		return "503"
	}
	switch {
	case code >= 500:
		return "5xx"
	case code >= 400:
		return "4xx"
	case code >= 300:
		return "3xx"
	default:
		return "2xx"
	}
}

// Routes builds the daemon's mux. The job routes sit behind the tenant
// auth middleware (a no-op on open deployments), all wrapped in the
// observe middleware (spans + access log, a no-op without WithTracer /
// WithLogger); discovery, metrics, and health stay unauthenticated so
// probes and scrapers keep working, and /metrics and /healthz stay
// unobserved so scrape traffic doesn't flood the trace store.
func (s *Server) Routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.observe("submit", s.auth("submit", true, s.handleSubmit)))
	mux.HandleFunc("GET /v1/jobs", s.observe("list", s.auth("list", false, s.handleList)))
	mux.HandleFunc("GET /v1/jobs/{id}", s.observe("status", s.auth("status", false, s.handleStatus)))
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.observe("result", s.auth("result", false, s.handleResult)))
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.observe("cancel", s.auth("cancel", false, s.handleCancel)))
	mux.HandleFunc("GET /v1/events", s.observe("events", s.auth("events", false, s.handleEvents)))
	mux.HandleFunc("GET /v1/traces/{id}", s.observe("trace", s.auth("trace", false, s.handleTrace)))
	mux.HandleFunc("GET /v1/backends", s.observe("backends", s.handleBackends))
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// statusWriter records the response status (and the authenticated tenant,
// stamped by the auth middleware) for the observe middleware, passing
// Flush through so SSE streaming keeps working behind it.
type statusWriter struct {
	http.ResponseWriter
	status int
	tenant string
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Flush implements http.Flusher when the underlying writer does — the SSE
// handler needs the capability to survive this wrapper.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap supports http.ResponseController.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// observe wraps a route in the telemetry middleware: start a request span
// (continuing the client's trace when the request carries a W3C
// traceparent header), run the handler with the span in its context, and
// emit one structured access-log record. With neither a tracer nor a
// logger configured the handler runs untouched.
func (s *Server) observe(route string, next http.HandlerFunc) http.HandlerFunc {
	if s.tracer == nil && s.logger == nil {
		return next
	}
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		parent, _ := tracing.ParseTraceparent(r.Header.Get("Traceparent"))
		var span *tracing.Span
		if s.tracer != nil {
			span = s.tracer.StartRemote("http "+route, parent)
			span.SetAttr("route", route)
			span.SetAttr("method", r.Method)
			r = r.WithContext(tracing.ContextWithSpan(r.Context(), span))
		}
		next(sw, r)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		traceID := span.Context().TraceID
		if traceID == "" {
			traceID = parent.TraceID // logged even when tracing is off
		}
		if span != nil {
			span.SetAttr("status", statusLabel(sw.status))
			span.SetAttr("tenant", tenant.Label(sw.tenant))
			span.End()
		}
		if s.logger != nil {
			s.logger.Info("request",
				slog.String("route", route),
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.Int("status", sw.status),
				slog.String("tenant", tenant.Label(sw.tenant)),
				slog.String("trace_id", traceID),
				slog.Duration("duration", time.Since(start)),
			)
		}
	}
}

// ctxKey keys the authenticated tenant ID in the request context.
type ctxKey int

const tenantCtxKey ctxKey = iota

// tenantID returns the authenticated tenant of the request ("" on open
// deployments and before authentication).
func tenantID(r *http.Request) string {
	id, _ := r.Context().Value(tenantCtxKey).(string)
	return id
}

// apiKey extracts the request's API key: Authorization: Bearer <key>, or
// the X-API-Key header.
func apiKey(r *http.Request) string {
	if h := r.Header.Get("Authorization"); h != "" {
		if key, ok := strings.CutPrefix(h, "Bearer "); ok {
			return strings.TrimSpace(key)
		}
	}
	return r.Header.Get("X-API-Key")
}

// auth is the tenant middleware: resolve the API key to a tenant (401
// unknown, 403 disabled or mismatched), optionally charge the tenant's
// rate bucket (429 + Retry-After when empty), and stamp the tenant into
// the request context for the handler. Without a tenant registry it
// passes every request through untouched.
func (s *Server) auth(route string, rateLimit bool, next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.tenants == nil {
			next(w, r)
			return
		}
		key := apiKey(r)
		if key == "" {
			s.mx.authFail.With("missing_key").Inc()
			w.Header().Set("WWW-Authenticate", `Bearer realm="linqd"`)
			s.writeError(w, r, route, http.StatusUnauthorized, CodeUnauthorized,
				"missing API key: pass Authorization: Bearer <key> (or X-API-Key)", nil)
			return
		}
		t, err := s.tenants.Authenticate(key)
		switch {
		case errors.Is(err, tenant.ErrForbidden):
			s.mx.authFail.With("disabled").Inc()
			s.writeError(w, r, route, http.StatusForbidden, CodeForbidden, err.Error(), nil)
			return
		case err != nil:
			s.mx.authFail.With("unknown_key").Inc()
			w.Header().Set("WWW-Authenticate", `Bearer realm="linqd"`)
			s.writeError(w, r, route, http.StatusUnauthorized, CodeUnauthorized, err.Error(), nil)
			return
		}
		// An asserted tenant identity must match the key's owner — catches
		// a client wired with one tenant's URI and another tenant's key.
		if want := r.Header.Get("X-Linq-Tenant"); want != "" && want != t.ID {
			s.mx.authFail.With("tenant_mismatch").Inc()
			s.writeError(w, r, route, http.StatusForbidden, CodeForbidden,
				fmt.Sprintf("API key does not belong to tenant %q", want), nil)
			return
		}
		r = r.WithContext(context.WithValue(r.Context(), tenantCtxKey, t.ID))
		if sw, ok := w.(*statusWriter); ok {
			sw.tenant = t.ID // surfaces in the observe middleware's span and log
		}
		if rateLimit {
			if ok, retry := s.tenants.Allow(t.ID, time.Now()); !ok {
				s.mx.throttle.With(t.ID).Inc()
				secs := int64(retry / time.Second)
				if secs < 1 {
					secs = 1
				}
				w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
				s.writeError(w, r, route, http.StatusTooManyRequests, CodeRateLimited,
					fmt.Sprintf("tenant %q rate limit exceeded", t.ID), nil)
				return
			}
		}
		next(w, r)
	}
}

// owns reports whether the request's tenant may see the job. Open
// deployments see everything; authenticated tenants see only their own.
func (s *Server) owns(r *http.Request, j jobs.Job) bool {
	return s.tenants == nil || j.Tenant == tenantID(r)
}

// submitRequest is the POST /v1/jobs body. Exactly one of QASM, Workload,
// or Circuit selects the program.
type submitRequest struct {
	// Name labels the job in status responses (optional).
	Name string `json:"name,omitempty"`
	// Backend is the target pool: TILT (default), QCCD, or IdealTI.
	Backend string `json:"backend,omitempty"`
	// QASM is OpenQASM 2.0 source text.
	QASM string `json:"qasm,omitempty"`
	// Workload names a built-in benchmark (ADDER, BV, QAOA, RCS, QFT, SQRT).
	Workload string `json:"workload,omitempty"`
	// Circuit is a JSON gate list in the circuit wire form — the lossless
	// path the tilt.Remote backend uses for arbitrary circuits. It stays
	// raw until intake decodes it; null means absent.
	Circuit json.RawMessage `json:"circuit,omitempty"`
	// Priority orders the queue: higher runs earlier (default 0).
	Priority int `json:"priority,omitempty"`
	// TTLMs bounds the queue wait in milliseconds (0 = unbounded).
	TTLMs int64 `json:"ttl_ms,omitempty"`
}

// jobJSON is the wire form of a job snapshot.
type jobJSON struct {
	ID        string     `json:"id"`
	Name      string     `json:"name,omitempty"`
	Backend   string     `json:"backend"`
	Tenant    string     `json:"tenant,omitempty"`
	State     jobs.State `json:"state"`
	Priority  int        `json:"priority,omitempty"`
	Deduped   bool       `json:"deduped,omitempty"`
	Submitted string     `json:"submitted,omitempty"`
	Started   string     `json:"started,omitempty"`
	Finished  string     `json:"finished,omitempty"`
	Error     string     `json:"error,omitempty"`
	// TraceID names the job's trace (GET /v1/traces/{id} serves it). It
	// rides on the job envelope, never inside "result", so deduplicated
	// submissions still share a byte-identical result subobject.
	TraceID string       `json:"trace_id,omitempty"`
	Result  *tilt.Result `json:"result,omitempty"`
}

func toJobJSON(j jobs.Job, withResult bool) jobJSON {
	out := jobJSON{
		ID:        j.ID,
		Name:      j.Name,
		Backend:   j.Backend,
		Tenant:    j.Tenant,
		State:     j.State,
		Priority:  j.Priority,
		Deduped:   j.Deduped,
		Submitted: stamp(j.Submitted),
		Started:   stamp(j.Started),
		Finished:  stamp(j.Finished),
		Error:     j.Error,
		TraceID:   j.TraceID,
	}
	if withResult && j.Result != nil {
		// Shallow-copy so the Result instance shared between deduped
		// subscribers is never mutated, and strip the compile-cache
		// snapshot: those counters are backend-global operational state
		// (served by /metrics), not part of this job's outcome — leaving
		// them in would make otherwise bit-identical duplicate results
		// differ by scrape timing.
		r := *j.Result
		r.Cache = nil
		out.Result = &r
	}
	return out
}

func stamp(t time.Time) string {
	if t.IsZero() {
		return ""
	}
	return t.UTC().Format(time.RFC3339Nano)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	const route = "submit"
	var req submitRequest
	var in *jobs.Intake
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	err := dec.Decode(&req)
	if err == nil {
		// One JSON value per request: anything but whitespace after it
		// would otherwise be silently dropped.
		if _, tail := dec.Token(); !errors.Is(tail, io.EOF) {
			err = errors.New("unexpected data after the top-level value")
		}
	}
	if string(req.Circuit) == "null" {
		req.Circuit = nil
	}
	if err == nil && req.Circuit != nil {
		in, err = s.intake(req.Circuit)
	}
	if err != nil {
		s.writeError(w, r, route, http.StatusBadRequest, CodeBadRequest,
			fmt.Sprintf("invalid JSON body: %v", err), nil)
		return
	}
	if req.Backend == "" {
		req.Backend = "TILT"
	}

	sources := 0
	for _, set := range []bool{req.QASM != "", req.Workload != "", req.Circuit != nil} {
		if set {
			sources++
		}
	}
	if sources != 1 {
		s.writeError(w, r, route, http.StatusBadRequest, CodeBadRequest,
			`pass exactly one of "qasm", "workload", or "circuit"`, nil)
		return
	}

	var circ *tilt.Circuit
	switch {
	case req.QASM != "":
		c, err := qasm.Parse(req.QASM)
		if err != nil {
			// Surface the parse position so the 400 is actionable.
			extra := map[string]any{}
			var pe *qasm.ParseError
			if errors.As(err, &pe) && pe.Line > 0 {
				extra["line"] = pe.Line
			}
			s.writeError(w, r, route, http.StatusBadRequest, CodeParseError, err.Error(), extra)
			return
		}
		circ = c
	case req.Workload != "":
		bm, err := workloads.ByName(req.Workload)
		if err != nil {
			s.writeError(w, r, route, http.StatusBadRequest, CodeBadRequest, err.Error(), nil)
			return
		}
		circ = bm.Circuit
		if req.Name == "" {
			req.Name = bm.Name
		}
	}

	// ttl_ms is client-controlled: reject negatives and cap the multiply so
	// a huge value can't overflow int64 nanoseconds into a bogus short (or
	// dropped) TTL.
	const maxTTLMs = math.MaxInt64 / int64(time.Millisecond)
	if req.TTLMs < 0 {
		s.writeError(w, r, route, http.StatusBadRequest, CodeBadRequest,
			`"ttl_ms" must be non-negative`, nil)
		return
	}
	if req.TTLMs > maxTTLMs {
		req.TTLMs = maxTTLMs
	}
	id, err := s.mgr.Submit(jobs.Request{
		Name:     req.Name,
		Backend:  req.Backend,
		Circuit:  circ,
		Intake:   in,
		Priority: req.Priority,
		TTL:      time.Duration(req.TTLMs) * time.Millisecond,
		Tenant:   tenantID(r),
		// Link the job's spans under this request's span (which itself
		// continues the client's trace when a traceparent came in).
		Parent: tracing.FromContext(r.Context()).Context(),
	})
	switch {
	case errors.Is(err, jobs.ErrUnknownBackend):
		s.writeError(w, r, route, http.StatusBadRequest, CodeUnknownBackend, err.Error(), nil)
		return
	case errors.Is(err, jobs.ErrShuttingDown):
		s.writeError(w, r, route, http.StatusServiceUnavailable, CodeShuttingDown, err.Error(), nil)
		return
	case errors.Is(err, jobs.ErrQuotaExceeded):
		// The quota frees as the tenant's queue drains, not on a clock;
		// 1s is a floor for the client's poll, not a promise.
		w.Header().Set("Retry-After", "1")
		s.writeError(w, r, route, http.StatusTooManyRequests, CodeQuotaExceeded, err.Error(), nil)
		return
	case err != nil:
		s.writeError(w, r, route, http.StatusInternalServerError, CodeInternal, err.Error(), nil)
		return
	}
	if s.logger != nil {
		s.logger.Info("job accepted",
			slog.String("job", id),
			slog.String("backend", req.Backend),
			slog.String("tenant", tenant.Label(tenantID(r))),
			slog.String("trace_id", tracing.FromContext(r.Context()).Context().TraceID),
		)
	}
	s.writeJSON(w, r, route, http.StatusAccepted, map[string]any{
		"id":         id,
		"status_url": "/v1/jobs/" + id,
		"result_url": "/v1/jobs/" + id + "/result",
		"trace_url":  "/v1/traces/" + id,
	})
}

// intake decodes a submission's "circuit" field, validating every gate,
// and serves a field seen recently from the intake cache instead. A failed
// decode is never cached, so a bad body fails the same way every time.
func (s *Server) intake(raw json.RawMessage) (*jobs.Intake, error) {
	cacheable := len(raw) <= maxCachedCircuit
	var key [sha256.Size]byte
	if cacheable {
		key = sha256.Sum256(raw)
		if in, ok := s.intakes.Get(key); ok {
			s.mx.intakeHits.Inc()
			return in, nil
		}
	}
	s.mx.intakeMisses.Inc()
	c := new(tilt.Circuit)
	if err := c.UnmarshalJSON(raw); err != nil {
		return nil, err
	}
	in := jobs.NewIntake(c)
	if cacheable {
		s.intakes.Add(key, in)
	}
	return in, nil
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	const route = "status"
	j, err := s.mgr.Get(r.PathValue("id"))
	if err != nil || !s.owns(r, j) {
		// A foreign tenant's job reads as absent, not forbidden: 403 would
		// confirm the ID exists and leak submission activity.
		s.writeError(w, r, route, http.StatusNotFound, CodeNotFound, jobs.ErrNotFound.Error(), nil)
		return
	}
	s.writeJSON(w, r, route, http.StatusOK, toJobJSON(j, false))
}

// handleList returns the requesting tenant's jobs (live plus the terminal
// snapshots still in the bounded store), newest first. On open deployments
// it lists the unauthenticated jobs.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	const route = "list"
	list := s.mgr.List(tenantID(r))
	out := make([]jobJSON, 0, len(list))
	for _, j := range list {
		out = append(out, toJobJSON(j, false))
	}
	s.writeJSON(w, r, route, http.StatusOK, map[string]any{
		"tenant": tenantID(r),
		"jobs":   out,
	})
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	const route = "result"
	id := r.PathValue("id")
	if waitStr := r.URL.Query().Get("wait"); waitStr != "" {
		d, err := time.ParseDuration(waitStr)
		if err != nil || d < 0 {
			s.writeError(w, r, route, http.StatusBadRequest, CodeBadRequest,
				fmt.Sprintf("invalid wait %q: want a non-negative duration like 5s", waitStr), nil)
			return
		}
		if d > maxResultWait {
			d = maxResultWait
		}
		ctx, cancel := context.WithTimeout(r.Context(), d)
		j, err := s.mgr.Wait(ctx, id)
		cancel()
		switch {
		case err == nil && !s.owns(r, j):
			s.writeError(w, r, route, http.StatusNotFound, CodeNotFound, jobs.ErrNotFound.Error(), nil)
			return
		case err == nil:
			s.writeJSON(w, r, route, http.StatusOK, toJobJSON(j, true))
			return
		case errors.Is(err, jobs.ErrNotFound):
			s.writeError(w, r, route, http.StatusNotFound, CodeNotFound, err.Error(), nil)
			return
		}
		// Wait timed out (or the client's context died): fall through and
		// report the job's state at this moment, exactly like a plain poll.
	}
	j, err := s.mgr.Get(id)
	if err != nil || !s.owns(r, j) {
		s.writeError(w, r, route, http.StatusNotFound, CodeNotFound, jobs.ErrNotFound.Error(), nil)
		return
	}
	if !j.State.Terminal() {
		s.writeError(w, r, route, http.StatusConflict, CodeNotReady,
			fmt.Sprintf("job %s is %s; result not ready", j.ID, j.State),
			map[string]any{"state": j.State})
		return
	}
	s.writeJSON(w, r, route, http.StatusOK, toJobJSON(j, true))
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	const route = "cancel"
	id := r.PathValue("id")
	if s.tenants != nil {
		// Ownership gate before the cancel mutates anything; a foreign
		// tenant's job reads as absent (see handleStatus).
		j, err := s.mgr.Get(id)
		if err != nil || !s.owns(r, j) {
			s.writeError(w, r, route, http.StatusNotFound, CodeNotFound, jobs.ErrNotFound.Error(), nil)
			return
		}
	}
	switch err := s.mgr.Cancel(id); {
	case errors.Is(err, jobs.ErrNotFound):
		s.writeError(w, r, route, http.StatusNotFound, CodeNotFound, err.Error(), nil)
	case errors.Is(err, jobs.ErrTerminal):
		s.writeError(w, r, route, http.StatusConflict, CodeTerminal, err.Error(), nil)
	case err != nil:
		s.writeError(w, r, route, http.StatusInternalServerError, CodeInternal, err.Error(), nil)
	default:
		s.writeJSON(w, r, route, http.StatusOK, map[string]any{
			"id": id, "state": jobs.StateCancelled,
		})
	}
}

// handleBackends is the discovery endpoint: the pools this daemon serves
// (the names POST /v1/jobs accepts), the URI schemes the process's backend
// registry knows (the names tilt.Open accepts), and a live load sample per
// pool — queue depth, in-flight executions, compile-cache hit rate, drain
// state — so a Pool member or fleet supervisor can route on current
// pressure, not just reachability.
func (s *Server) handleBackends(w http.ResponseWriter, r *http.Request) {
	pools := s.mgr.Backends()
	sort.Strings(pools)
	s.writeJSON(w, r, "backends", http.StatusOK, map[string]any{
		"backends": pools,
		"schemes":  tilt.Backends(),
		"version":  Version(),
		"load":     s.mgr.PoolLoads(),
	})
}

// handleTrace serves a job's assembled daemon-side trace: every finished
// span sharing the job's trace ID still in the tracer's bounded store.
// The job ID (not the raw trace ID) is the key, so the same ownership rule
// as status/result applies; clients holding the client half of the trace
// merge the two span sets by trace ID.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	const route = "trace"
	j, err := s.mgr.Get(r.PathValue("id"))
	if err != nil || !s.owns(r, j) {
		s.writeError(w, r, route, http.StatusNotFound, CodeNotFound, jobs.ErrNotFound.Error(), nil)
		return
	}
	if s.tracer == nil || j.TraceID == "" {
		s.writeError(w, r, route, http.StatusNotFound, CodeNotFound,
			"no trace recorded for this job (daemon tracing disabled)", nil)
		return
	}
	spans, ok := s.tracer.Trace(j.TraceID)
	if !ok {
		s.writeError(w, r, route, http.StatusNotFound, CodeNotFound,
			"trace evicted from the bounded store", nil)
		return
	}
	s.writeJSON(w, r, route, http.StatusOK, map[string]any{
		"job":      j.ID,
		"trace_id": j.TraceID,
		"spans":    spans,
	})
}

// handleEvents streams job-transition events as Server-Sent Events: one
// "job" frame per queued/running/terminal transition of the requesting
// tenant's jobs (every job on open deployments), with periodic comment
// heartbeats. The stream is best-effort — a slow consumer loses frames
// rather than slowing the scheduler — so consumers re-sync jobs they care
// about from GET /v1/jobs/{id}.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	const route = "events"
	fl, ok := w.(http.Flusher)
	if !ok {
		s.writeError(w, r, route, http.StatusInternalServerError, CodeInternal,
			"streaming unsupported by this server", nil)
		return
	}
	ch, unsubscribe := s.mgr.Subscribe(tenantID(r), eventsBuffer)
	defer unsubscribe()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	// The SSE spec's comment frame: tells the client the stream is live
	// before the first event exists.
	fmt.Fprint(w, ": stream open\n\n")
	fl.Flush()
	s.countRequest(r, route, http.StatusOK)

	heartbeat := time.NewTicker(eventsHeartbeat)
	defer heartbeat.Stop()
	enc := json.NewEncoder(w)
	for {
		select {
		case <-r.Context().Done():
			return
		case ev := <-ch:
			fmt.Fprintf(w, "id: %d\nevent: job\ndata: ", ev.Seq)
			if err := enc.Encode(ev); err != nil { // Encode appends the frame-ending newline
				return
			}
			fmt.Fprint(w, "\n")
			fl.Flush()
		case <-heartbeat.C:
			if _, err := fmt.Fprint(w, ": keep-alive\n\n"); err != nil {
				return
			}
			fl.Flush()
		}
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_ = s.reg.WritePrometheus(w)
	s.countRequest(r, "metrics", http.StatusOK)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	backends := s.mgr.Backends()
	sort.Strings(backends)
	s.writeJSON(w, r, "healthz", http.StatusOK, map[string]any{
		"status":   "ok",
		"version":  Version(),
		"uptime_s": int64(time.Since(s.start).Seconds()),
		"backends": backends,
		"jobs":     s.mgr.Stats(),
	})
}

func (s *Server) writeJSON(w http.ResponseWriter, r *http.Request, route string, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
	s.countRequest(r, route, code)
}

func (s *Server) writeError(w http.ResponseWriter, r *http.Request, route string, status int, code, msg string, extra map[string]any) {
	body := map[string]any{"error": msg, "code": code}
	for k, v := range extra {
		body[k] = v
	}
	s.writeJSON(w, r, route, status, body)
}
