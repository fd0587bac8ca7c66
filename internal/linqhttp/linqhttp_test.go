package linqhttp_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	tilt "repro"
	"repro/internal/jobs"
	"repro/internal/linqhttp"
)

func startServer(t *testing.T) (string, *jobs.Manager) {
	t.Helper()
	reg := tilt.NewMetricsRegistry()
	mgr, err := jobs.New([]jobs.Pool{
		{Name: "TILT", Backend: tilt.NewTILT(tilt.WithDevice(0, 4)), Workers: 2},
		{Name: "IdealTI", Backend: tilt.NewIdealTI(), Workers: 1},
	}, jobs.WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(linqhttp.NewServer(mgr, reg).Routes())
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = mgr.Shutdown(ctx)
	})
	return srv.URL, mgr
}

func doJSON(t *testing.T, method, url string, body any) (int, map[string]any) {
	t.Helper()
	var raw []byte
	if body != nil {
		var err error
		if raw, err = json.Marshal(body); err != nil {
			t.Fatal(err)
		}
	}
	return doRaw(t, method, url, raw)
}

// doRaw sends body verbatim (nil = no body) and returns the status and the
// decoded response.
func doRaw(t *testing.T, method, url string, body []byte) (int, map[string]any) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if len(raw) > 0 {
		if err := json.Unmarshal(raw, &decoded); err != nil {
			t.Fatalf("%s %s: non-JSON body %q", method, url, raw)
		}
	}
	return resp.StatusCode, decoded
}

func TestBackendsEndpoint(t *testing.T) {
	base, _ := startServer(t)
	code, body := doJSON(t, http.MethodGet, base+"/v1/backends", nil)
	if code != http.StatusOK {
		t.Fatalf("GET /v1/backends: HTTP %d: %v", code, body)
	}
	pools, _ := body["backends"].([]any)
	if len(pools) != 2 || pools[0] != "IdealTI" || pools[1] != "TILT" {
		t.Errorf("backends = %v, want sorted [IdealTI TILT]", pools)
	}
	schemes, _ := body["schemes"].([]any)
	found := map[any]bool{}
	for _, s := range schemes {
		found[s] = true
	}
	for _, want := range []string{"tilt", "qccd", "idealti", "linqd"} {
		if !found[want] {
			t.Errorf("schemes = %v: missing %q", schemes, want)
		}
	}
	if v, _ := body["version"].(string); v == "" {
		t.Errorf("missing version in %v", body)
	}
}

func TestHealthzReportsVersion(t *testing.T) {
	base, _ := startServer(t)
	code, body := doJSON(t, http.MethodGet, base+"/healthz", nil)
	if code != http.StatusOK {
		t.Fatalf("GET /healthz: HTTP %d: %v", code, body)
	}
	if body["status"] != "ok" {
		t.Errorf("status = %v", body["status"])
	}
	if v, _ := body["version"].(string); v == "" {
		t.Errorf("healthz missing version: %v", body)
	}
	if _, ok := body["backends"].([]any); !ok {
		t.Errorf("healthz missing backends: %v", body)
	}
}

func TestSubmitJSONCircuitAndBlockingWait(t *testing.T) {
	base, _ := startServer(t)
	circ := tilt.GHZ(8).Circuit
	code, body := doJSON(t, http.MethodPost, base+"/v1/jobs", map[string]any{
		"backend": "TILT",
		"circuit": circ,
	})
	if code != http.StatusAccepted {
		t.Fatalf("submit circuit: HTTP %d: %v", code, body)
	}
	id, _ := body["id"].(string)

	// One blocking fetch replaces the whole poll loop.
	code, body = doJSON(t, http.MethodGet, base+"/v1/jobs/"+id+"/result?wait=30s", nil)
	if code != http.StatusOK {
		t.Fatalf("blocking result fetch: HTTP %d: %v", code, body)
	}
	if body["state"] != "done" {
		t.Fatalf("state = %v (error %v)", body["state"], body["error"])
	}
	res, _ := body["result"].(map[string]any)
	if res == nil || res["SuccessRate"] == nil {
		t.Fatalf("result = %v", body["result"])
	}
}

func TestResultWaitValidation(t *testing.T) {
	base, _ := startServer(t)
	code, body := doJSON(t, http.MethodGet, base+"/v1/jobs/j-1/result?wait=banana", nil)
	if code != http.StatusBadRequest || body["code"] != linqhttp.CodeBadRequest {
		t.Errorf("bad wait: HTTP %d %v", code, body)
	}
	code, body = doJSON(t, http.MethodGet, base+"/v1/jobs/j-404/result?wait=10ms", nil)
	if code != http.StatusNotFound || body["code"] != linqhttp.CodeNotFound {
		t.Errorf("unknown id with wait: HTTP %d %v", code, body)
	}
}

func TestSubmitValidationAndErrorCodes(t *testing.T) {
	base, mgr := startServer(t)
	circ := tilt.GHZ(4).Circuit

	cases := []struct {
		name     string
		body     any // a string is sent verbatim
		wantCode string
	}{
		{"no source", map[string]any{"backend": "TILT"}, linqhttp.CodeBadRequest},
		{"two sources", map[string]any{"workload": "BV", "circuit": circ}, linqhttp.CodeBadRequest},
		{"qasm and circuit", map[string]any{"qasm": "qreg q[2]; h q[0];", "circuit": circ}, linqhttp.CodeBadRequest},
		{"bad circuit", map[string]any{"circuit": map[string]any{"qubits": 2, "gates": []map[string]any{{"kind": "zz", "qubits": []int{0}}}}}, linqhttp.CodeBadRequest},
		{"parse error", map[string]any{"qasm": "qreg q[2];\nfrobnicate q[0];"}, linqhttp.CodeParseError},
		{"unknown pool", map[string]any{"backend": "nope", "circuit": circ}, linqhttp.CodeUnknownBackend},
		{"trailing garbage", `{"workload":"BV"} trailing garbage`, linqhttp.CodeBadRequest},
		{"second value", `{"workload":"BV"}{"workload":"QFT"}`, linqhttp.CodeBadRequest},
	}
	for _, tc := range cases {
		var code int
		var body map[string]any
		if raw, ok := tc.body.(string); ok {
			code, body = doRaw(t, http.MethodPost, base+"/v1/jobs", []byte(raw))
		} else {
			code, body = doJSON(t, http.MethodPost, base+"/v1/jobs", tc.body)
		}
		if code != http.StatusBadRequest || body["code"] != tc.wantCode {
			t.Errorf("%s: HTTP %d code %v, want 400 %s (%v)", tc.name, code, body["code"], tc.wantCode, body["error"])
		}
	}

	// The parse error carries the offending line.
	code, body := doJSON(t, http.MethodPost, base+"/v1/jobs", map[string]any{
		"qasm": "qreg q[2];\nfrobnicate q[0];",
	})
	if code != http.StatusBadRequest {
		t.Fatalf("parse error: HTTP %d", code)
	}
	if line, _ := body["line"].(float64); line != 2 {
		t.Errorf("parse error line = %v, want 2 (%v)", body["line"], body["error"])
	}

	// After a drain, submissions carry the shutting_down code and a 503.
	sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := mgr.Shutdown(sctx); err != nil {
		t.Fatal(err)
	}
	code, body = doJSON(t, http.MethodPost, base+"/v1/jobs", map[string]any{"circuit": circ})
	if code != http.StatusServiceUnavailable || body["code"] != linqhttp.CodeShuttingDown {
		t.Errorf("drained submit: HTTP %d %v, want 503 shutting_down", code, body)
	}
}

func TestVersionNonEmpty(t *testing.T) {
	if v := linqhttp.Version(); v == "" || strings.ContainsAny(v, " \n") {
		t.Errorf("Version() = %q", v)
	}
}
