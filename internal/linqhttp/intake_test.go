package linqhttp_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	tilt "repro"
	"repro/internal/jobs"
	"repro/internal/journal"
	"repro/internal/linqhttp"
	"repro/internal/workloads"
)

// TestIntakeRejectionsAreStable pins the 400 texts of circuits that fail
// to decode, sends each rejected body twice (a failed decode is never
// cached, so the second send fails the same way) and then checks that a
// good body is still accepted.
func TestIntakeRejectionsAreStable(t *testing.T) {
	base, _ := startServer(t)
	cases := []struct{ name, body, want string }{
		{"unknown kind", `{"circuit":{"qubits":2,"gates":[{"kind":"zz","qubits":[0]}]}}`,
			`invalid JSON body: gate 0: circuit: unknown gate kind "zz"`},
		{"qubit out of range", `{"circuit":{"qubits":2,"gates":[{"kind":"h","qubits":[5]}]}}`,
			`invalid JSON body: gate 0: qubit 5 out of range [0,2)`},
		{"not an object", `{"circuit": 5}`,
			`invalid JSON body: circuit: json: cannot unmarshal number into Go value of type circuit.circuitJSON`},
	}
	for _, tc := range cases {
		for send := 1; send <= 2; send++ {
			code, body := doRaw(t, http.MethodPost, base+"/v1/jobs", []byte(tc.body))
			if code != http.StatusBadRequest || body["code"] != linqhttp.CodeBadRequest || body["error"] != tc.want {
				t.Errorf("%s, send %d: HTTP %d %v %q, want 400 %s %q",
					tc.name, send, code, body["code"], body["error"], linqhttp.CodeBadRequest, tc.want)
			}
		}
	}
	// Trailing whitespace is not trailing data.
	good := `{"backend":"IdealTI","circuit":{"qubits":2,"gates":[{"kind":"h","qubits":[0]},{"kind":"cx","qubits":[0,1]}]}}` + "\r\n\t "
	if code, body := doRaw(t, http.MethodPost, base+"/v1/jobs", []byte(good)); code != http.StatusAccepted {
		t.Errorf("good body after rejections: HTTP %d %v", code, body)
	}

	// An explicit null circuit is absent, as it always was.
	code, body := doRaw(t, http.MethodPost, base+"/v1/jobs", []byte(`{"circuit": null}`))
	if want := `pass exactly one of "qasm", "workload", or "circuit"`; code != http.StatusBadRequest || body["error"] != want {
		t.Errorf("null circuit alone: HTTP %d %q, want 400 %q", code, body["error"], want)
	}
	if code, body := doRaw(t, http.MethodPost, base+"/v1/jobs", []byte(`{"backend":"IdealTI","workload":"BV","circuit":null}`)); code != http.StatusAccepted {
		t.Errorf("workload with a null circuit: HTTP %d %v", code, body)
	}
}

// TestIntakeJournalEquivalence submits one body three times to a
// journaled manager, twice over: cold (the first send decodes and the
// journal bytes are built) and warm (every send is served by the cache).
// Every submitted record must carry exactly the bytes json.Marshal gives
// for a freshly decoded circuit, and every job must dedup under that
// circuit's Fingerprint: the cached intake carries it, and a direct
// submission of the fresh circuit attaches to the execution the three
// sends share.
func TestIntakeJournalEquivalence(t *testing.T) {
	dir := t.TempDir()
	jnl, err := journal.Open(dir, journal.WithoutSync())
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	reg := tilt.NewMetricsRegistry()
	mgr, err := jobs.New([]jobs.Pool{{Name: "TILT", Backend: &gateBackend{name: "TILT", gate: gate}, Workers: 1}},
		jobs.WithMetrics(reg), jobs.WithJournal(jnl))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		close(gate)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = mgr.Shutdown(ctx)
		_ = jnl.Close()
	})
	srv := linqhttp.NewServer(mgr, reg)
	h := srv.Routes()

	circJSON, err := json.Marshal(workloads.QFTN(12).Circuit)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(map[string]any{"backend": "TILT", "circuit": json.RawMessage(circJSON)})
	if err != nil {
		t.Fatal(err)
	}
	fresh := new(tilt.Circuit)
	if err := json.Unmarshal(circJSON, fresh); err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(fresh)
	if err != nil {
		t.Fatal(err)
	}

	for _, round := range []struct {
		name         string
		hits, misses float64
	}{{"cold", 2, 1}, {"warm", 5, 1}} {
		var ids []string
		for send := 0; send < 3; send++ {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
			if rec.Code != http.StatusAccepted {
				t.Fatalf("%s send %d: HTTP %d %s", round.name, send, rec.Code, rec.Body)
			}
			var resp struct{ ID string }
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatal(err)
			}
			ids = append(ids, resp.ID)
		}
		direct, err := mgr.Submit(jobs.Request{Backend: "TILT", Circuit: fresh})
		if err != nil {
			t.Fatal(err)
		}
		for i, id := range append(ids, direct) {
			j, err := mgr.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			if j.Deduped != (i > 0) {
				t.Errorf("%s: job %d (%s) deduped = %v: its dedup key is not the fresh circuit's fingerprint",
					round.name, i, id, j.Deduped)
			}
		}
		if got := counter(t, reg, "linq_http_intake_cache_hits_total"); got != round.hits {
			t.Errorf("%s: intake cache hits = %v, want %v", round.name, got, round.hits)
		}
		if got := counter(t, reg, "linq_http_intake_cache_misses_total"); got != round.misses {
			t.Errorf("%s: intake cache misses = %v, want %v", round.name, got, round.misses)
		}
		// Release this round's one execution and let its four jobs finish,
		// so the warm round queues a fresh execution.
		gate <- struct{}{}
		for _, id := range ids {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			j, err := mgr.Wait(ctx, id)
			cancel()
			if err != nil || j.State != jobs.StateDone {
				t.Fatalf("%s: job %s: %v %v", round.name, id, j.State, err)
			}
		}
	}

	in, err := linqhttp.IntakeOf(srv, circJSON)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := in.Fingerprint(), fresh.Fingerprint(); got != want {
		t.Errorf("cached intake's dedup key is %s, want the fresh circuit's Fingerprint %s", got, want)
	}

	segs, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	submitted := 0
	for _, seg := range segs {
		recs, err := journal.ReadSegment(seg)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			if rec.Op != journal.OpSubmitted {
				continue
			}
			submitted++
			if !bytes.Equal(rec.Circuit, want) {
				t.Errorf("job %s: journaled circuit differs from json.Marshal of a fresh decode (%d vs %d bytes)",
					rec.ID, len(rec.Circuit), len(want))
			}
		}
	}
	if submitted != 8 {
		t.Errorf("%d submitted records, want 8", submitted)
	}
}

// counter reads an unlabelled counter from the registry's exposition.
func counter(t *testing.T, reg *tilt.MetricsRegistry, name string) float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
	}
	t.Fatalf("%s not exposed", name)
	return 0
}

// TestIntakeSharedCircuitImmutable runs one cached circuit as 16
// concurrent executions on a TILT backend with the compile cache and the
// Monte-Carlo cross-check, alongside QCCD and IdealTI. The intake cache,
// dedup and the compile cache all hand one *Circuit to many jobs, so
// nothing may mutate it: its fingerprint and wire bytes must not change.
func TestIntakeSharedCircuitImmutable(t *testing.T) {
	mgr, err := jobs.New([]jobs.Pool{{Name: "TILT", Backend: &gateBackend{name: "TILT"}, Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = mgr.Shutdown(context.Background()) })
	srv := linqhttp.NewServer(mgr, tilt.NewMetricsRegistry())

	raw, err := json.Marshal(workloads.QFTN(8).Circuit)
	if err != nil {
		t.Fatal(err)
	}
	in, err := linqhttp.IntakeOf(srv, raw)
	if err != nil {
		t.Fatal(err)
	}
	if again, err := linqhttp.IntakeOf(srv, raw); err != nil || again != in {
		t.Fatalf("second intake of the same body was not served by the cache (%v)", err)
	}
	c := in.Circuit()
	fp := c.Fingerprint()
	wire, err := c.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}

	ti := tilt.NewTILT(tilt.WithDevice(0, 4), tilt.WithCompileCache(8), tilt.WithShots(64))
	runs := []tilt.Backend{tilt.NewQCCD(), tilt.NewIdealTI()}
	for i := 0; i < 16; i++ {
		runs = append(runs, ti)
	}
	results := make([]*tilt.Result, len(runs))
	errs := make([]error, len(runs))
	var wg sync.WaitGroup
	for i, be := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = tilt.Execute(context.Background(), be, c)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		switch {
		case err != nil:
			t.Errorf("run %d on %s: %v", i, runs[i].Name(), err)
		case runs[i] == ti && results[i].MC == nil:
			t.Errorf("run %d on TILT: no Monte-Carlo estimate", i)
		}
	}
	if got := c.Fingerprint(); got != fp {
		t.Errorf("fingerprint changed: %s → %s", fp, got)
	}
	if got, err := c.MarshalJSON(); err != nil || !bytes.Equal(got, wire) {
		t.Errorf("wire form changed (%v)", err)
	}
}
