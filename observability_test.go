package tilt_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	tilt "repro"
	"repro/internal/jobs"
	"repro/internal/linqhttp"
	"repro/internal/tracing"
)

// startTracedDaemon boots an in-process linqd API with tracing wired end to
// end (manager spans + HTTP traceparent extraction) and returns the base
// URL, the manager, and the daemon-side tracer for store assertions.
func startTracedDaemon(t *testing.T, tiltOpts ...tilt.Option) (string, *jobs.Manager, *tilt.Tracer) {
	t.Helper()
	reg := tilt.NewMetricsRegistry()
	tracer := tracing.New("linqd", tracing.WithMetrics(reg))
	mgr, err := jobs.New([]jobs.Pool{
		{Name: "TILT", Backend: tilt.NewTILT(tiltOpts...), Workers: 2},
	}, jobs.WithMetrics(reg), jobs.WithTracer(tracer))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(linqhttp.NewServer(mgr, reg, linqhttp.WithTracer(tracer)).Routes())
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = mgr.Shutdown(ctx)
	})
	return srv.URL, mgr, tracer
}

// sseEvent mirrors the jobs.Event wire form for SSE frame decoding.
type sseEvent struct {
	Seq     uint64 `json:"seq"`
	JobID   string `json:"job"`
	State   string `json:"state"`
	Deduped bool   `json:"deduped"`
	TraceID string `json:"trace_id"`
}

// subscribeSSE opens /v1/events and feeds decoded job frames to a channel
// until the stream or the test ends. It returns after the first frame of
// the stream preamble has been read, so a subsequent submission cannot race
// the subscription.
func subscribeSSE(t *testing.T, base string) <-chan sseEvent {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/events: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		t.Fatalf("GET /v1/events: Content-Type %q, want text/event-stream", ct)
	}
	t.Cleanup(cancel)

	events := make(chan sseEvent, 64)
	sc := bufio.NewScanner(resp.Body)
	// The handler flushes a ": stream open" comment before any job frame;
	// reading it here proves the subscription is registered daemon-side.
	if !sc.Scan() || !strings.HasPrefix(sc.Text(), ":") {
		t.Fatalf("expected stream-open comment, got %q (err %v)", sc.Text(), sc.Err())
	}
	go func() {
		defer resp.Body.Close()
		defer close(events)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "data: ") {
				continue
			}
			var ev sseEvent
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				continue
			}
			events <- ev
		}
	}()
	return events
}

// nextEventFor pulls frames until one matches the job ID, with a deadline.
func nextEventFor(t *testing.T, events <-chan sseEvent, jobID string) sseEvent {
	t.Helper()
	deadline := time.After(30 * time.Second)
	for {
		select {
		case ev, ok := <-events:
			if !ok {
				t.Fatal("event stream closed before the expected frame")
			}
			if ev.JobID == jobID {
				return ev
			}
		case <-deadline:
			t.Fatalf("no SSE frame for job %s within deadline", jobID)
		}
	}
}

// TestEndToEndTraceStitching is the acceptance check for the tracing plane:
// a tilt.Remote submission against a live daemon must yield ONE trace —
// the client's trace ID — containing the client-side span and every
// daemon-side span (HTTP ingress, job, queue-wait, compile with all five
// passes, simulate), while an SSE subscriber observes the job's
// queued → running → done transitions in order.
func TestEndToEndTraceStitching(t *testing.T) {
	base, _, daemonTracer := startTracedDaemon(t,
		tilt.WithDevice(0, 4), tilt.WithOptimize())
	events := subscribeSSE(t, base)

	clientTracer := tilt.NewTracer("client")
	root := clientTracer.StartRoot("e2e")
	ctx := tilt.ContextWithSpan(context.Background(), root)

	res, err := tilt.Execute(ctx, tilt.Remote(base), tilt.GHZ(6).Circuit)
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || res.Backend != "TILT" {
		t.Fatalf("unexpected result: %+v", res)
	}
	root.End()
	traceID := root.Context().TraceID

	// Client side of the stitch: the remote-call span lives in the client
	// tracer under the same trace ID.
	clientSpans, ok := clientTracer.Trace(traceID)
	if !ok {
		t.Fatalf("client tracer lost trace %s", traceID)
	}
	if !hasSpan(clientSpans, "remote TILT") {
		t.Fatalf("client trace missing %q span; have %v", "remote TILT", spanNames(clientSpans))
	}

	// SSE side: the three lifecycle transitions arrive in order and carry
	// the stitched trace ID. The submission was the daemon's only job, so
	// the first frame names it.
	first := nextEventAny(t, events)
	jobID := first.JobID
	for i, want := range []string{"queued", "running", "done"} {
		ev := first
		if i > 0 {
			ev = nextEventFor(t, events, jobID)
		}
		if ev.State != want {
			t.Fatalf("SSE transition = %q, want %q (job %s)", ev.State, want, jobID)
		}
		if ev.TraceID != traceID {
			t.Fatalf("SSE frame trace_id = %q, want client trace %q", ev.TraceID, traceID)
		}
	}

	// Daemon side of the stitch, through the public API: every span under
	// the client's trace ID.
	var tr struct {
		Job     string             `json:"job"`
		TraceID string             `json:"trace_id"`
		Spans   []tracing.SpanData `json:"spans"`
	}
	getJSON(t, base+"/v1/traces/"+jobID, &tr)
	if tr.TraceID != traceID {
		t.Fatalf("/v1/traces trace_id = %q, want %q", tr.TraceID, traceID)
	}
	for _, want := range []string{
		"http submit", "job", "queue-wait", "compile",
		"pass decompose", "pass optimize", "pass place",
		"pass insert-swaps", "pass schedule", "simulate",
	} {
		if !hasSpan(tr.Spans, want) {
			t.Fatalf("stitched trace missing %q span; have %v", want, spanNames(tr.Spans))
		}
	}
	for _, s := range tr.Spans {
		if s.TraceID != traceID {
			t.Fatalf("span %q has trace %s, want %s", s.Name, s.TraceID, traceID)
		}
		if s.Service != "linqd" {
			t.Fatalf("span %q service = %q, want linqd", s.Name, s.Service)
		}
	}

	// And directly against the store, for belt and braces.
	if _, ok := daemonTracer.Trace(traceID); !ok {
		t.Fatalf("daemon tracer has no trace %s", traceID)
	}
}

// TestDedupByteIdenticalWithTracing guards the dedup contract against the
// tracing plane: two identical submissions share one execution, get
// distinct trace IDs on their job envelopes, and still serve byte-identical
// result payloads — trace state must never leak into the shared Result.
func TestDedupByteIdenticalWithTracing(t *testing.T) {
	// A gate on Compile holds the first execution in flight, so the second
	// submission is guaranteed to land inside the dedup window.
	gate := &gatedTILT{TILTBackend: tilt.NewTILT(tilt.WithDevice(0, 4)), release: make(chan struct{})}
	reg := tilt.NewMetricsRegistry()
	tracer := tilt.NewTracer("linqd")
	mgr, err := jobs.New([]jobs.Pool{{Name: "TILT", Backend: gate, Workers: 1}},
		jobs.WithMetrics(reg), jobs.WithTracer(tracer))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(linqhttp.NewServer(mgr, reg, linqhttp.WithTracer(tracer)).Routes())
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = mgr.Shutdown(ctx)
	})
	base := srv.URL

	circ := tilt.GHZ(8).Circuit
	id1 := submitJob(t, base, circ)
	id2 := submitJob(t, base, circ)
	close(gate.release)

	j1 := awaitTerminal(t, mgr, id1)
	j2 := awaitTerminal(t, mgr, id2)
	if !j2.Deduped {
		t.Fatal("second identical submission did not dedup")
	}
	if j1.TraceID == "" || j2.TraceID == "" {
		t.Fatal("jobs missing trace IDs with tracing enabled")
	}
	if j1.TraceID == j2.TraceID {
		t.Fatal("deduped jobs must carry their own trace IDs, got a shared one")
	}

	// The envelope legitimately differs (ID, timestamps, per-job trace ID);
	// the shared result payload must not.
	b1, r1 := resultPayload(t, base, id1)
	_, r2 := resultPayload(t, base, id2)
	if !bytes.Equal(r1, r2) {
		t.Fatalf("deduped result payloads differ byte for byte:\n%s\nvs\n%s", r1, r2)
	}
	if bytes.Contains(r1, []byte(j1.TraceID)) || bytes.Contains(r1, []byte(j2.TraceID)) {
		t.Fatal("trace ID leaked into the shared result payload")
	}
	// Each envelope carries its own trace ID, never the sibling's.
	if !bytes.Contains(b1, []byte(j1.TraceID)) || bytes.Contains(b1, []byte(j2.TraceID)) {
		t.Fatal("job envelope trace_id mixed up between deduped jobs")
	}
}

// gatedTILT is a real TILT backend whose Compile blocks until release is
// closed — it pins executions in flight so dedup windows are deterministic.
type gatedTILT struct {
	*tilt.TILTBackend
	release chan struct{}
}

func (g *gatedTILT) Compile(ctx context.Context, c *tilt.Circuit) (*tilt.Artifact, error) {
	select {
	case <-g.release:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return g.TILTBackend.Compile(ctx, c)
}

// submitJob POSTs a circuit and returns the accepted job ID.
func submitJob(t *testing.T, base string, c *tilt.Circuit) string {
	t.Helper()
	body, err := json.Marshal(map[string]any{"circuit": c, "backend": "TILT"})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: status %d: %s", resp.StatusCode, b)
	}
	var out struct {
		ID       string `json:"id"`
		TraceURL string `json:"trace_url"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if want := "/v1/traces/" + out.ID; out.TraceURL != want {
		t.Fatalf("submit trace_url = %q, want %q", out.TraceURL, want)
	}
	return out.ID
}

// awaitTerminal polls the manager until the job reaches a terminal state.
func awaitTerminal(t *testing.T, mgr *jobs.Manager, id string) jobs.Job {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		j, err := mgr.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if j.State.Terminal() {
			return j
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never terminal", id)
	return jobs.Job{}
}

// resultPayload fetches a terminal job's envelope and returns it raw
// alongside the raw bytes of its "result" field.
func resultPayload(t *testing.T, base, id string) (envelope, result []byte) {
	t.Helper()
	envelope = getRaw(t, base+"/v1/jobs/"+id+"/result")
	var out struct {
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(envelope, &out); err != nil {
		t.Fatalf("decode result envelope: %v", err)
	}
	if len(out.Result) == 0 {
		t.Fatalf("job %s served no result payload: %s", id, envelope)
	}
	return envelope, out.Result
}

func getRaw(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, b)
	}
	return b
}

func getJSON(t *testing.T, url string, into any) {
	t.Helper()
	if err := json.Unmarshal(getRaw(t, url), into); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
}

func hasSpan(spans []tracing.SpanData, name string) bool {
	for _, s := range spans {
		if s.Name == name {
			return true
		}
	}
	return false
}

func spanNames(spans []tracing.SpanData) []string {
	out := make([]string, len(spans))
	for i, s := range spans {
		out[i] = s.Name
	}
	return out
}

// nextEventAny blocks for the next frame of any job.
func nextEventAny(t *testing.T, events <-chan sseEvent) sseEvent {
	t.Helper()
	select {
	case ev, ok := <-events:
		if !ok {
			t.Fatal("event stream closed before any frame")
		}
		return ev
	case <-time.After(30 * time.Second):
		t.Fatal("no SSE frame within deadline")
	}
	return sseEvent{}
}

// TestTelemetryNeverChangesResults runs every backend kind with and without
// a metrics registry: booking telemetry must not move a single result
// field apart from the wall-clock pass timings.
func TestTelemetryNeverChangesResults(t *testing.T) {
	c := tilt.GHZ(8).Circuit
	device := tilt.WithDevice(8, 4)
	cases := map[string]func(opts []tilt.Option, popts []tilt.PoolOption) (tilt.Backend, error){
		"TILT+shots": func(opts []tilt.Option, _ []tilt.PoolOption) (tilt.Backend, error) {
			return tilt.NewTILT(append(opts, device, tilt.WithShots(200), tilt.WithSeed(7))...), nil
		},
		"QCCD": func(opts []tilt.Option, _ []tilt.PoolOption) (tilt.Backend, error) {
			return tilt.NewQCCD(opts...), nil
		},
		"IdealTI": func(opts []tilt.Option, _ []tilt.PoolOption) (tilt.Backend, error) {
			return tilt.NewIdealTI(opts...), nil
		},
		"Pool": func(opts []tilt.Option, popts []tilt.PoolOption) (tilt.Backend, error) {
			opts = append(opts, device)
			return tilt.Pool([]tilt.Backend{tilt.NewTILT(opts...), tilt.NewTILT(opts...)}, popts...)
		},
	}
	for name, build := range cases {
		t.Run(name, func(t *testing.T) {
			run := func(opts []tilt.Option, popts []tilt.PoolOption) *tilt.Result {
				b, err := build(opts, popts)
				if err != nil {
					t.Fatal(err)
				}
				res, err := tilt.Execute(context.Background(), b, c)
				if err != nil {
					t.Fatal(err)
				}
				if res.TILT != nil {
					res.TILT.TSwap, res.TILT.TMove = 0, 0
					for i := range res.TILT.Passes {
						res.TILT.Passes[i].Wall = 0
					}
				}
				return res
			}
			reg := tilt.NewMetricsRegistry()
			with := run([]tilt.Option{tilt.WithMetrics(reg)}, []tilt.PoolOption{tilt.PoolWithMetrics(reg)})
			without := run(nil, nil)
			if !reflect.DeepEqual(with, without) {
				t.Fatalf("telemetry changed the result:\nwith    %+v\nwithout %+v", with, without)
			}
			var buf bytes.Buffer
			if err := reg.WritePrometheus(&buf); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(buf.String(), "linq_compiles_total{") {
				t.Fatalf("registry recorded no compiles:\n%s", buf.String())
			}
		})
	}
}
