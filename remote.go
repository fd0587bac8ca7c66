package tilt

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/tracing"
)

// RemoteBackend executes circuits on a linqd daemon over its HTTP job API:
// Simulate submits the job, blocks on the daemon's ?wait= result fetch,
// and decodes the unified Result.
// Cancelling the context aborts the wait and propagates a best-effort
// DELETE so the daemon stops working on the job too.
//
// A RemoteBackend satisfies the same Backend contract as the in-process
// engines, so the runner, the jobs manager, and Pool fan it out unchanged.
// It is safe for concurrent use. Construct with Remote or
// Open(ctx, "linqd://host:port?backend=TILT").
type RemoteBackend struct {
	base    string // http://host:port, no trailing slash
	backend string // server-side pool name ("TILT", "QCCD", "IdealTI")
	client  *http.Client
	apiKey  string // tenant API key, sent as Authorization: Bearer
	tenant  string // asserted tenant ID (optional, sent as X-Linq-Tenant)
	name    string
}

const (
	// resultWait is the daemon-side block per result fetch (the daemon caps
	// it at 60s); a fetch that returns "not ready" is simply reissued.
	resultWait = 15 * time.Second
	// A throttled (429) fetch waits the longer of the daemon's Retry-After
	// hint and a backoff doubling from throttleBackoffMin to
	// throttleBackoffMax.
	throttleBackoffMin = 10 * time.Millisecond
	throttleBackoffMax = time.Second
)

// RemoteOption configures a RemoteBackend.
type RemoteOption func(*RemoteBackend)

// RemoteTarget selects the daemon-side backend pool the jobs run on
// (default "TILT").
func RemoteTarget(backend string) RemoteOption {
	return func(b *RemoteBackend) { b.backend = backend }
}

// RemoteHTTPClient replaces the HTTP client (default: a client with a 5
// minute overall request timeout; per-call cancellation still comes from
// the caller's context).
func RemoteHTTPClient(c *http.Client) RemoteOption {
	return func(b *RemoteBackend) { b.client = c }
}

// RemoteAPIKey authenticates every request with the tenant API key (sent
// as Authorization: Bearer <key>). Required against a daemon running with
// -tenants; requests without it are refused with 401.
func RemoteAPIKey(key string) RemoteOption {
	return func(b *RemoteBackend) { b.apiKey = key }
}

// RemoteTenant asserts the tenant identity the API key must belong to
// (sent as X-Linq-Tenant). Optional — the key alone identifies the tenant;
// asserting it catches a mismatched key/URI pairing with a 403 instead of
// silently submitting as the key's owner.
func RemoteTenant(id string) RemoteOption {
	return func(b *RemoteBackend) { b.tenant = id }
}

// Remote returns a client backend for the linqd daemon at addr
// ("host:port" or a full http:// URL).
func Remote(addr string, opts ...RemoteOption) *RemoteBackend {
	base := strings.TrimSuffix(addr, "/")
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	b := &RemoteBackend{
		base:    base,
		backend: "TILT",
		client:  &http.Client{Timeout: 5 * time.Minute},
	}
	for _, o := range opts {
		o(b)
	}
	b.name = fmt.Sprintf("linqd:%s@%s", b.backend, strings.TrimPrefix(strings.TrimPrefix(b.base, "https://"), "http://"))
	return b
}

func init() {
	Register("linqd", func(ctx context.Context, u *url.URL) (Backend, error) {
		if u.Host == "" {
			return nil, fmt.Errorf("linqd:// needs a host, e.g. linqd://127.0.0.1:8080")
		}
		q := u.Query()
		var opts []RemoteOption
		if q.Has("backend") {
			opts = append(opts, RemoteTarget(q.Get("backend")))
		}
		if q.Has("key") {
			opts = append(opts, RemoteAPIKey(q.Get("key")))
		}
		if q.Has("tenant") {
			opts = append(opts, RemoteTenant(q.Get("tenant")))
		}
		for k := range q {
			switch k {
			case "backend", "key", "tenant":
			default:
				return nil, fmt.Errorf("unknown parameter %q (known: backend, key, tenant)", k)
			}
		}
		return Remote(u.Host, opts...), nil
	})
}

// RemoteError is a structured failure from a linqd daemon: the HTTP status
// (0 for transport-level failures that never got a response), the daemon's
// machine-readable code when it sent one, and the human-readable message.
// Pool's breaker logic keys on it to separate endpoint failures from
// circuit-level errors.
type RemoteError struct {
	// Status is the HTTP status code; 0 means the request itself failed
	// (connection refused, reset, ...).
	Status int
	// Code is the daemon's machine-readable error code, e.g.
	// "shutting_down" when intake is draining. Empty when not provided.
	Code string
	// Message is the human-readable error.
	Message string
	// Line is the 1-based QASM source line for parse failures (0 otherwise).
	Line int
	// RetryAfter is the daemon's Retry-After hint on 429 responses (zero
	// when the daemon sent none). The result wait honors it before the next
	// fetch; submit-side callers should too.
	RetryAfter time.Duration
	// cause is the underlying transport error, if any.
	cause error
}

// Error implements error.
func (e *RemoteError) Error() string {
	var b strings.Builder
	b.WriteString("linqd: ")
	if e.Status > 0 {
		fmt.Fprintf(&b, "HTTP %d: ", e.Status)
	}
	b.WriteString(e.Message)
	if e.Code != "" {
		fmt.Fprintf(&b, " (code %s)", e.Code)
	}
	if e.Line > 0 {
		fmt.Fprintf(&b, " (line %d)", e.Line)
	}
	return b.String()
}

// Unwrap exposes the transport-level cause so errors.Is still matches
// context cancellation through the wrapper.
func (e *RemoteError) Unwrap() error { return e.cause }

// ShuttingDown reports that the daemon refused the work because it is
// draining — deliberate, not a fault.
func (e *RemoteError) ShuttingDown() bool { return e.Code == codeShuttingDown }

// Temporary reports whether retrying against the same endpoint could
// plausibly succeed: transport failures and 5xx/429 responses.
func (e *RemoteError) Temporary() bool {
	return e.Status == 0 || e.Status == http.StatusTooManyRequests || e.Status >= 500
}

// codeShuttingDown is the daemon's machine-readable drain code (kept in
// sync with internal/linqhttp).
const codeShuttingDown = "shutting_down"

// Name implements Backend.
func (b *RemoteBackend) Name() string { return b.name }

// Target returns the daemon-side backend pool name jobs run on.
func (b *RemoteBackend) Target() string { return b.backend }

// Addr returns the daemon's base URL.
func (b *RemoteBackend) Addr() string { return b.base }

// Compile implements Backend. Compilation happens daemon-side as part of
// the submitted job, so Compile only validates the circuit and wraps it in
// an artifact for Simulate to ship.
func (b *RemoteBackend) Compile(ctx context.Context, c *Circuit) (*Artifact, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if c == nil {
		return nil, fmt.Errorf("tilt: %s.Compile: nil circuit", b.name)
	}
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("tilt: %s.Compile: %w", b.name, err)
	}
	return &Artifact{Backend: b.name, Circuit: c}, nil
}

// Simulate implements Backend: submit the artifact's circuit to the
// daemon, wait for the terminal state, and decode the Result. The Result is
// whatever the daemon-side backend produced, so a TILT job returns
// Result.TILT exactly as an in-process NewTILT would (Result.Cache is
// always nil: compile-cache counters are daemon-global state, stripped
// from job payloads).
func (b *RemoteBackend) Simulate(ctx context.Context, a *Artifact) (*Result, error) {
	if err := checkArtifact(a, b.name); err != nil {
		return nil, err
	}
	return b.run(ctx, a.Circuit)
}

// Execute submits the circuit and waits for its Result in one call — the
// remote equivalent of the package-level Execute.
func (b *RemoteBackend) Execute(ctx context.Context, c *Circuit) (*Result, error) {
	a, err := b.Compile(ctx, c)
	if err != nil {
		return nil, err
	}
	return b.Simulate(ctx, a)
}

// remoteJob mirrors the daemon's job wire form (the fields the client
// reads).
type remoteJob struct {
	ID     string  `json:"id"`
	State  string  `json:"state"`
	Error  string  `json:"error"`
	Result *Result `json:"result"`
}

// remoteErrorBody mirrors the daemon's error wire form.
type remoteErrorBody struct {
	Error string `json:"error"`
	Code  string `json:"code"`
	Line  int    `json:"line"`
}

// run is the full submit → wait → result round trip. When the caller's
// context carries a trace span, the round trip becomes a child span and
// every daemon request carries its traceparent, so the daemon's spans join
// the client's trace.
func (b *RemoteBackend) run(ctx context.Context, c *Circuit) (*Result, error) {
	ctx, span := tracing.StartSpan(ctx, "remote "+b.backend)
	span.SetAttr("base", b.base)
	id, err := b.submit(ctx, c)
	if err != nil {
		span.EndErr(err)
		return nil, err
	}
	span.SetAttr("job_id", id)
	res, err := b.await(ctx, id)
	span.EndErr(err)
	return res, err
}

// await block-fetches the submitted job until it reaches a terminal state.
func (b *RemoteBackend) await(ctx context.Context, id string) (*Result, error) {
	backoff := throttleBackoffMin
	for {
		job, ready, err := b.fetchResult(ctx, id)
		var re *RemoteError
		switch {
		case errors.As(err, &re) && re.Status == http.StatusTooManyRequests:
			// A 429 is throttling, not failure: the job is still running
			// daemon-side, so honor Retry-After (or the current backoff,
			// whichever is longer) and fetch again instead of cancelling.
			t := time.NewTimer(max(backoff, re.RetryAfter))
			select {
			case <-ctx.Done():
				t.Stop()
				b.cancelRemote(id)
				return nil, ctx.Err()
			case <-t.C:
			}
			backoff = min(2*backoff, throttleBackoffMax)
			continue
		case err != nil:
			// Whatever broke the fetch — caller cancellation or a
			// transport/HTTP failure — stop the daemon-side work too, or
			// the submitted job would keep a remote worker busy computing
			// a result nobody will collect.
			b.cancelRemote(id)
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			return nil, err
		case !ready:
			if err := ctx.Err(); err != nil {
				b.cancelRemote(id)
				return nil, err
			}
			continue
		}
		switch job.State {
		case "done":
			if job.Result == nil {
				return nil, &RemoteError{Status: http.StatusOK, Message: fmt.Sprintf("job %s done without a result", id)}
			}
			return job.Result, nil
		case "cancelled":
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			return nil, fmt.Errorf("tilt: %s: job %s cancelled daemon-side: %s", b.name, id, job.Error)
		default: // failed
			return nil, fmt.Errorf("tilt: %s: job %s failed: %s", b.name, id, job.Error)
		}
	}
}

// submit POSTs the circuit and returns the daemon's job ID.
func (b *RemoteBackend) submit(ctx context.Context, c *Circuit) (string, error) {
	// The body is {"backend":...,"circuit":...} with the circuit's canonical
	// bytes spliced in: json.Marshal of a map would re-scan and compact
	// them, which costs more than writing them.
	name, _ := json.Marshal(b.backend) // marshalling a string cannot fail
	payload := append([]byte(`{"backend":`), name...)
	payload = c.AppendJSON(append(payload, `,"circuit":`...))
	payload = append(payload, '}')
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.base+"/v1/jobs", bytes.NewReader(payload))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/json")
	b.setAuth(req)
	resp, err := b.client.Do(req)
	if err != nil {
		return "", b.transportError(ctx, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return "", decodeRemoteError(resp)
	}
	var out struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || out.ID == "" {
		return "", &RemoteError{Status: resp.StatusCode, Message: fmt.Sprintf("submit: malformed response (%v)", err)}
	}
	return out.ID, nil
}

// fetchResult GETs the job's result, blocking daemon-side for up to
// resultWait. ready=false means the job is still queued or running.
func (b *RemoteBackend) fetchResult(ctx context.Context, id string) (job remoteJob, ready bool, err error) {
	u := b.base + "/v1/jobs/" + id + "/result?wait=" + resultWait.String()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return remoteJob{}, false, err
	}
	b.setAuth(req)
	resp, err := b.client.Do(req)
	if err != nil {
		return remoteJob{}, false, b.transportError(ctx, err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
			return remoteJob{}, false, &RemoteError{Status: resp.StatusCode, Message: fmt.Sprintf("result: malformed response: %v", err)}
		}
		return job, true, nil
	case http.StatusConflict: // not terminal yet
		io.Copy(io.Discard, resp.Body)
		return remoteJob{}, false, nil
	default:
		return remoteJob{}, false, decodeRemoteError(resp)
	}
}

// RemoteLoad is one pool's live load sample from a daemon's /v1/backends
// response — the routing signal a Pool member or fleet supervisor reads.
type RemoteLoad struct {
	// Backend is the daemon-side pool name; Workers its concurrency bound.
	Backend string `json:"backend"`
	Workers int    `json:"workers"`
	// Queued and Running count deduplicated executions waiting and on
	// workers right now.
	Queued  int `json:"queued"`
	Running int `json:"running"`
	// CacheHitRate is the pool backend's compile-cache hit rate in [0, 1]
	// (-1 without a cache or before the first lookup).
	CacheHitRate float64 `json:"cache_hit_rate"`
	// Draining reports the daemon stopped intake.
	Draining bool `json:"draining"`
}

// RemoteHealth is a daemon's discovery/health sample: what it serves and
// how loaded each pool is right now.
type RemoteHealth struct {
	Version  string       `json:"version"`
	Backends []string     `json:"backends"`
	Load     []RemoteLoad `json:"load"`
}

// Health fetches the daemon's live health/load sample (GET /v1/backends).
// Routing layers call it out of band; it never touches the job API, so it
// works against draining daemons too.
func (b *RemoteBackend) Health(ctx context.Context) (RemoteHealth, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.base+"/v1/backends", nil)
	if err != nil {
		return RemoteHealth{}, err
	}
	b.setAuth(req)
	resp, err := b.client.Do(req)
	if err != nil {
		return RemoteHealth{}, b.transportError(ctx, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return RemoteHealth{}, decodeRemoteError(resp)
	}
	var out RemoteHealth
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return RemoteHealth{}, &RemoteError{Status: resp.StatusCode, Message: fmt.Sprintf("backends: malformed response: %v", err)}
	}
	return out, nil
}

// cancelRemote best-effort DELETEs the job after the caller's context was
// cancelled, so the daemon abandons the work too. It runs on its own short
// deadline: the caller's context is already dead.
func (b *RemoteBackend) cancelRemote(id string) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, b.base+"/v1/jobs/"+id, nil)
	if err != nil {
		return
	}
	b.setAuth(req)
	if resp, err := b.client.Do(req); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

// setAuth stamps the tenant credentials — and, when the request's context
// carries a trace span, its W3C traceparent — onto an outgoing request.
func (b *RemoteBackend) setAuth(req *http.Request) {
	if b.apiKey != "" {
		req.Header.Set("Authorization", "Bearer "+b.apiKey)
	}
	if b.tenant != "" {
		req.Header.Set("X-Linq-Tenant", b.tenant)
	}
	if tp := tracing.FromContext(req.Context()).Traceparent(); tp != "" {
		req.Header.Set("Traceparent", tp)
	}
}

// transportError wraps a request failure: the caller's cancellation passes
// through unchanged (it is not an endpoint fault); everything else becomes
// a Status-0 RemoteError that trips pool breakers.
func (b *RemoteBackend) transportError(ctx context.Context, err error) error {
	if ctx.Err() != nil {
		return ctx.Err()
	}
	return &RemoteError{Status: 0, Message: err.Error(), cause: err}
}

// decodeRemoteError turns a non-2xx daemon response into a RemoteError,
// carrying the Retry-After hint through for throttled (429) requests.
func decodeRemoteError(resp *http.Response) error {
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	var body remoteErrorBody
	if err := json.Unmarshal(raw, &body); err != nil || body.Error == "" {
		body.Error = strings.TrimSpace(string(raw))
		if body.Error == "" {
			body.Error = http.StatusText(resp.StatusCode)
		}
	}
	re := &RemoteError{Status: resp.StatusCode, Code: body.Code, Message: body.Error, Line: body.Line}
	if h := resp.Header.Get("Retry-After"); h != "" {
		// linqd sends delay-seconds; the HTTP-date form is not parsed.
		if secs, err := strconv.Atoi(h); err == nil && secs >= 0 {
			re.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return re
}
