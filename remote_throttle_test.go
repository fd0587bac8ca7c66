package tilt_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	tilt "repro"
)

// throttleStub is a scripted linqd stand-in: it accepts one submission and
// 429s the first `throttles` result fetches (with a Retry-After hint)
// before serving the terminal job. It records what the client did so the
// test can assert the result wait's behavior, not just its outcome.
type throttleStub struct {
	throttles  int32 // remaining 429 responses
	retryAfter string
	fetches    atomic.Int32
	nonBlock   atomic.Int32 // result fetches without ?wait=15s
	deletes    atomic.Int32
	lastAuth   atomic.Value // Authorization header of the latest request
}

func (s *throttleStub) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.lastAuth.Store(r.Header.Get("Authorization"))
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(map[string]string{"id": "j-00000001"})
	case r.Method == http.MethodGet && r.URL.Path == "/v1/jobs/j-00000001/result":
		s.fetches.Add(1)
		if r.URL.Query().Get("wait") != "15s" {
			s.nonBlock.Add(1)
		}
		if atomic.AddInt32(&s.throttles, -1) >= 0 {
			w.Header().Set("Retry-After", s.retryAfter)
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(map[string]string{"error": "tenant rate limit exceeded", "code": "rate_limited"})
			return
		}
		json.NewEncoder(w).Encode(map[string]any{
			"id": "j-00000001", "state": "done",
			"result": map[string]any{"Backend": "TILT", "SuccessRate": 0.75},
		})
	case r.Method == http.MethodDelete:
		s.deletes.Add(1)
		w.WriteHeader(http.StatusNoContent)
	default:
		http.NotFound(w, r)
	}
}

// TestRemote429PollHonorsRetryAfter: a throttled result fetch is not a
// failure — the client waits out the daemon's Retry-After hint (not just
// its own millisecond backoff), keeps the job alive (no DELETE), and
// collects the result on the next fetch.
func TestRemote429PollHonorsRetryAfter(t *testing.T) {
	stub := &throttleStub{throttles: 1, retryAfter: "1"}
	srv := httptest.NewServer(stub)
	defer srv.Close()

	be := tilt.Remote(srv.URL, tilt.RemoteAPIKey("key-alice"))

	start := time.Now()
	res, err := be.Execute(context.Background(), tilt.GHZ(3).Circuit)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("Execute through a 429: %v", err)
	}
	if res.SuccessRate != 0.75 {
		t.Errorf("result = %+v", res)
	}
	// The 1s Retry-After hint must dominate the 10ms throttle backoff.
	if elapsed < 900*time.Millisecond {
		t.Errorf("fetch resumed after %v, want >= ~1s (Retry-After honored)", elapsed)
	}
	if n := stub.deletes.Load(); n != 0 {
		t.Errorf("client cancelled a merely-throttled job (%d DELETEs)", n)
	}
	if n := stub.fetches.Load(); n != 2 {
		t.Errorf("result fetches = %d, want 2 (one throttled, one served)", n)
	}
	// Every result fetch blocks daemon-side, throttled or not.
	if n := stub.nonBlock.Load(); n != 0 {
		t.Errorf("%d result fetches lacked wait=15s", n)
	}
	if got := stub.lastAuth.Load(); got != "Bearer key-alice" {
		t.Errorf("Authorization = %q, want the configured Bearer key", got)
	}
}

// TestRemote429SubmitTyped: a throttled submission surfaces as a
// *RemoteError that is Temporary and carries the parsed Retry-After, so
// pool breakers and callers can schedule the retry.
func TestRemote429SubmitTyped(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "7")
		w.WriteHeader(http.StatusTooManyRequests)
		json.NewEncoder(w).Encode(map[string]string{"error": "tenant rate limit exceeded", "code": "rate_limited"})
	}))
	defer srv.Close()

	_, err := tilt.Remote(srv.URL).Execute(context.Background(), tilt.GHZ(3).Circuit)
	var re *tilt.RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v (%T), want *RemoteError", err, err)
	}
	if re.Status != http.StatusTooManyRequests || re.Code != "rate_limited" {
		t.Errorf("RemoteError = %+v", re)
	}
	if !re.Temporary() {
		t.Error("429 must be Temporary: retrying later can succeed")
	}
	if re.RetryAfter != 7*time.Second {
		t.Errorf("RetryAfter = %v, want 7s", re.RetryAfter)
	}
}
