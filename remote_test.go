package tilt_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	tilt "repro"
	"repro/internal/jobs"
	"repro/internal/linqhttp"
	"repro/internal/workloads"
)

// startTestDaemon boots an in-process linqd HTTP API (manager + handlers)
// on an httptest server and returns its base URL plus the manager (for
// daemon-side assertions). The TILT pool takes the given options, so
// parity tests can mirror a local backend's configuration exactly.
func startTestDaemon(t *testing.T, tiltOpts ...tilt.Option) (string, *jobs.Manager) {
	t.Helper()
	return startDaemonWithTILT(t, tilt.NewTILT(tiltOpts...), nil)
}

// startDaemonWithTILT is startTestDaemon with the TILT pool served by the
// given backend. A non-nil observe sees every request before the daemon
// serves it.
func startDaemonWithTILT(t *testing.T, tiltBackend tilt.Backend, observe func(*http.Request)) (string, *jobs.Manager) {
	t.Helper()
	reg := tilt.NewMetricsRegistry()
	mgr, err := jobs.New([]jobs.Pool{
		{Name: "TILT", Backend: tiltBackend, Workers: 2},
		{Name: "QCCD", Backend: tilt.NewQCCD(), Workers: 1},
		{Name: "IdealTI", Backend: tilt.NewIdealTI(), Workers: 1},
	}, jobs.WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	var h http.Handler = linqhttp.NewServer(mgr, reg).Routes()
	if observe != nil {
		routes := h
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			observe(r)
			routes.ServeHTTP(w, r)
		})
	}
	srv := httptest.NewServer(h)
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = mgr.Shutdown(ctx)
	})
	return srv.URL, mgr
}

// normalizeResult strips the fields that legitimately differ between a
// local and a remote execution of the same circuit: compile-cache counters
// (daemon-global operational state, stripped from job payloads) and
// wall-clock pass timings. Everything else must match bit for bit.
func normalizeResult(r *tilt.Result) *tilt.Result {
	out := *r
	out.Cache = nil
	if r.TILT != nil {
		ts := *r.TILT
		ts.TSwap, ts.TMove = 0, 0
		ts.Passes = append([]tilt.PassTiming(nil), r.TILT.Passes...)
		for i := range ts.Passes {
			ts.Passes[i].Wall = 0
		}
		out.TILT = &ts
	}
	return &out
}

// TestRemoteParityWithLocalTILT is the acceptance check for the remote
// backend: the same circuit through an in-process NewTILT and through
// linq remote execution against a daemon configured identically must
// produce byte-identical Results (modulo cache and timing fields),
// Monte-Carlo estimates included.
func TestRemoteParityWithLocalTILT(t *testing.T) {
	ctx := context.Background()
	opts := []tilt.Option{tilt.WithDevice(0, 4), tilt.WithShots(200), tilt.WithSeed(7)}
	base, _ := startTestDaemon(t, opts...)

	local := tilt.NewTILT(opts...)
	remote := tilt.Remote(base)
	circ := tilt.GHZ(10).Circuit

	lres, err := tilt.Execute(ctx, local, circ)
	if err != nil {
		t.Fatal(err)
	}
	rres, err := tilt.Execute(ctx, remote, circ)
	if err != nil {
		t.Fatal(err)
	}
	if rres.Backend != "TILT" {
		t.Errorf("remote Result.Backend = %q, want TILT", rres.Backend)
	}
	if rres.MC == nil || !rres.MC.HasStateFidelity {
		t.Fatalf("remote result lost the MC stats: %+v", rres.MC)
	}

	lj, err := json.Marshal(normalizeResult(lres))
	if err != nil {
		t.Fatal(err)
	}
	rj, err := json.Marshal(normalizeResult(rres))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(lj, rj) {
		t.Errorf("local and remote Results differ:\nlocal:  %s\nremote: %s", lj, rj)
	}
}

// TestOpenRemoteScheme drives the registry end to end: linqd://host?backend=
// opens a remote backend bound to the daemon-side pool.
func TestOpenRemoteScheme(t *testing.T) {
	ctx := context.Background()
	base, _ := startTestDaemon(t)
	uri := "linqd://" + strings.TrimPrefix(base, "http://") + "?backend=IdealTI"
	be, err := tilt.Open(ctx, uri)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(be.Name(), "linqd:IdealTI@") {
		t.Errorf("Name() = %q, want linqd:IdealTI@<host>", be.Name())
	}
	res, err := tilt.Execute(ctx, be, tilt.GHZ(6).Circuit)
	if err != nil {
		t.Fatal(err)
	}
	if res.Backend != "IdealTI" || res.SuccessRate <= 0 {
		t.Errorf("remote IdealTI result = %+v", res)
	}
}

// TestRemoteTypedErrors pins the RemoteError surface: unknown daemon-side
// pools are 400s with the unknown_backend code, and a draining daemon is
// recognizably shutting down.
func TestRemoteTypedErrors(t *testing.T) {
	ctx := context.Background()
	base, mgr := startTestDaemon(t)

	_, err := tilt.Remote(base, tilt.RemoteTarget("nope")).Execute(ctx, tilt.GHZ(4).Circuit)
	var re *tilt.RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("unknown pool: err = %v (%T), want *RemoteError", err, err)
	}
	if re.Status != 400 || re.Code != linqhttp.CodeUnknownBackend || re.Temporary() {
		t.Errorf("unknown pool: %+v", re)
	}

	sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := mgr.Shutdown(sctx); err != nil {
		t.Fatal(err)
	}
	_, err = tilt.Remote(base).Execute(ctx, tilt.GHZ(4).Circuit)
	if !errors.As(err, &re) {
		t.Fatalf("drained daemon: err = %v (%T), want *RemoteError", err, err)
	}
	if !re.ShuttingDown() || !re.Temporary() || re.Status != 503 {
		t.Errorf("drained daemon: %+v", re)
	}
}

// heldBackend is a TILT backend whose Compile blocks until its context is
// done, so a job on it stays running until someone cancels it.
type heldBackend struct{ tilt.Backend }

func (h heldBackend) Compile(ctx context.Context, _ *tilt.Circuit) (*tilt.Artifact, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

// TestRemoteCancelPropagates: cancelling the caller's context both returns
// ctx.Err() and DELETEs the job daemon-side, so the daemon stops working
// on it.
func TestRemoteCancelPropagates(t *testing.T) {
	// The daemon holds the job until a cancel reaches it, so the cancel
	// always lands however fast the real pipeline would have been. The
	// first result fetch shows the client holds the job ID it must DELETE.
	fetching := make(chan struct{})
	var once sync.Once
	base, mgr := startDaemonWithTILT(t, heldBackend{tilt.NewTILT()}, func(r *http.Request) {
		if r.Method == http.MethodGet && strings.HasSuffix(r.URL.Path, "/result") {
			once.Do(func() { close(fetching) })
		}
	})
	bench := tilt.BenchmarkQFT()

	ctx, cancel := context.WithCancel(context.Background())
	remote := tilt.Remote(base)
	done := make(chan error, 1)
	go func() {
		_, err := remote.Execute(ctx, bench.Circuit)
		done <- err
	}()

	// Wait until the client is fetching the accepted job's result, then cancel it.
	select {
	case <-fetching:
	case <-time.After(30 * time.Second):
		t.Fatal("client never fetched its submitted job's result")
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Execute after cancel: err = %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Execute did not return after cancel")
	}

	// The best-effort DELETE must land: only the cancel can end the held
	// job, and it must end as cancelled.
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st := mgr.Stats()
		if st.Cancelled > 0 {
			return
		}
		if st.Done+st.Failed > 0 {
			t.Fatalf("held job ended without the cancel: %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("daemon never saw the propagated cancel")
}

// TestRemoteSubmitBody: the submit body spliced around the circuit's
// canonical bytes equals what json.Marshal of the {backend, circuit} map
// writes, for every workload circuit and for a backend name that needs
// escaping.
func TestRemoteSubmitBody(t *testing.T) {
	bodies := make(chan []byte, 1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		bodies <- body
		http.Error(w, "refused", http.StatusBadRequest)
	}))
	defer srv.Close()

	benches := append(workloads.All(), workloads.ShortDistanceSuite()...)
	for _, target := range []string{"TILT", "a<b"} {
		be := tilt.Remote(srv.URL, tilt.RemoteTarget(target))
		for _, bm := range benches {
			if _, err := be.Execute(context.Background(), bm.Circuit); err == nil {
				t.Fatalf("%s: Execute against a refusing stub succeeded", bm.Name)
			}
			want, err := json.Marshal(map[string]any{"backend": target, "circuit": bm.Circuit})
			if err != nil {
				t.Fatal(err)
			}
			if got := <-bodies; !bytes.Equal(got, want) {
				t.Errorf("backend %q, %s: submit body differs from json.Marshal:\ngot:  %.200s\nwant: %.200s", target, bm.Name, got, want)
			}
		}
	}
}

// TestRemoteCompileValidates: the client rejects nil and malformed
// circuits locally, without a round trip.
func TestRemoteCompileValidates(t *testing.T) {
	remote := tilt.Remote("127.0.0.1:1") // nothing listens here
	if _, err := remote.Compile(context.Background(), nil); err == nil {
		t.Error("Compile(nil) succeeded")
	}
	// A foreign artifact is rejected before any network traffic.
	other := tilt.NewIdealTI()
	a, err := other.Compile(context.Background(), tilt.GHZ(3).Circuit)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := remote.Simulate(context.Background(), a); err == nil {
		t.Error("Simulate of a foreign artifact succeeded")
	}
}
