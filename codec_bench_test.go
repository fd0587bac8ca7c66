package tilt_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	tilt "repro"
	"repro/internal/jobs"
	"repro/internal/journal"
	"repro/internal/linqhttp"
	"repro/internal/workloads"
)

// BENCH_codec.json has BENCH_kernels.json's shape: ns/op of the circuit
// wire codec and of the submissions it serves, on the parent commit and
// on the change, each row with a digest of what the operation produced.
const (
	codecBenchFile = "BENCH_codec.json"
	codecEnv       = "LINQ_BENCH_CODEC"
	codecCommand   = "go test -run TestGenerateCodecBench -count=1 ."
)

// codecDescriptions names each measured operation's workload.
var codecDescriptions = map[string]string{
	"decode_qft64": "Circuit.UnmarshalJSON of the QFT-64 wire form (2080 gates, ~119 KB)",
	"encode_qft64": "Circuit.MarshalJSON of the QFT-64 circuit",
	"submit_miss": "POST /v1/jobs through linqhttp's handler in process, rotating through 32 distinct " +
		"QFT-64 bodies (more than the intake cache holds), onto a journaled (no fsync) TILT pool that " +
		"holds every execution, as BENCH_intake.json's miss case",
	"submit_hit": "the same with one body every op: served by the intake cache, then dedup",
}

// codecSetups builds each row's benchmark and the digest of what its
// operation produces, keyed as in codecDescriptions.
var codecSetups = map[string]func(testing.TB) (func(*testing.B), string){
	"decode_qft64": func(tb testing.TB) (func(*testing.B), string) {
		data, err := json.Marshal(workloads.QFT().Circuit)
		if err != nil {
			tb.Fatal(err)
		}
		var c tilt.Circuit
		if err := c.UnmarshalJSON(data); err != nil {
			tb.Fatal(err)
		}
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var c tilt.Circuit
				if err := c.UnmarshalJSON(data); err != nil {
					b.Fatal(err)
				}
			}
		}, c.Fingerprint()
	},
	"encode_qft64": func(tb testing.TB) (func(*testing.B), string) {
		c := workloads.QFT().Circuit
		data, err := c.MarshalJSON()
		if err != nil {
			tb.Fatal(err)
		}
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.MarshalJSON(); err != nil {
					b.Fatal(err)
				}
			}
		}, fmt.Sprintf("%x", sha256.Sum256(data))
	},
	"submit_miss": func(tb testing.TB) (func(*testing.B), string) {
		bodies := intakeBodies(tb, intakePool)
		return intakeKernel(bodies), journaledDigest(tb, bodies)
	},
	"submit_hit": func(tb testing.TB) (func(*testing.B), string) {
		bodies := intakeBodies(tb, 1)
		return intakeKernel(bodies), journaledDigest(tb, append(bodies, bodies...))
	},
}

// journaledDigest submits each body once, in order, to a journaled daemon
// stack and hashes the circuit bytes of the submitted records it wrote.
func journaledDigest(tb testing.TB, bodies [][]byte) string {
	dir := tb.TempDir()
	jnl, err := journal.Open(dir, journal.WithoutSync())
	if err != nil {
		tb.Fatal(err)
	}
	mgr, err := jobs.New([]jobs.Pool{{Name: "TILT", Backend: heldBackend{tilt.NewTILT()}, Workers: 1}}, jobs.WithJournal(jnl))
	if err != nil {
		tb.Fatal(err)
	}
	h := linqhttp.NewServer(mgr, tilt.NewMetricsRegistry()).Routes()
	for _, body := range bodies {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
		if rec.Code != http.StatusAccepted {
			tb.Fatalf("HTTP %d: %s", rec.Code, rec.Body)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_ = mgr.Shutdown(ctx)
	if err := jnl.Close(); err != nil {
		tb.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil {
		tb.Fatal(err)
	}
	h256 := sha256.New()
	n := 0
	for _, seg := range segs {
		recs, err := journal.ReadSegment(seg)
		if err != nil {
			tb.Fatal(err)
		}
		for _, r := range recs {
			if r.Op == journal.OpSubmitted {
				h256.Write(r.Circuit)
				n++
			}
		}
	}
	if n != len(bodies) {
		tb.Fatalf("%d submitted records, want %d", n, len(bodies))
	}
	return fmt.Sprintf("%x", h256.Sum(nil))
}

// TestGenerateCodecBench measures the codec rows and writes this commit's
// side of BENCH_codec.json, keeping the other side; gated like
// TestGenerateKernelsBench:
//
//	LINQ_BENCH_CODEC=parent go test -run TestGenerateCodecBench -count=1 .   # on the parent
//	LINQ_BENCH_CODEC=change go test -run TestGenerateCodecBench -count=1 .   # on the change
func TestGenerateCodecBench(t *testing.T) {
	side := benchSide(t, codecEnv, codecBenchFile)
	setups := map[string]func(testing.TB) func(*testing.B){}
	digests := map[string]string{}
	for name, setup := range codecSetups {
		run, digest := setup(t)
		digests[name] = digest
		setups[name] = func(testing.TB) func(*testing.B) { return run }
	}
	rows := measureKernels(t, side, setups)
	for name, d := range digests {
		r := rows[name]
		r.Digest = d
		rows[name] = r
	}
	writeBenchSide(t, codecBenchFile, "codec", codecEnv, codecCommand, side, codecDescriptions, rows)
}

// TestCodecBenchArtifact keeps the committed BENCH_codec.json honest: the
// generic artifact checks, both sides producing the same circuits, wire
// bytes and journal bytes on every row, and the claims the file backs —
// the hand-written codec decodes at least 3× and encodes at least 1.5×
// faster, and a submission the intake cache misses is at least 3× cheaper.
func TestCodecBenchArtifact(t *testing.T) {
	bench := readBenchArtifact(t, codecBenchFile, "codec", codecEnv, codecCommand, codecDescriptions)
	for name := range codecDescriptions {
		p, c := bench.Sides["parent"].Results[name], bench.Sides["change"].Results[name]
		if p.Digest == "" || p.Digest != c.Digest {
			t.Errorf("%s: parent digest %q, change %q; want equal and set", name, p.Digest, c.Digest)
		}
	}
	for name, want := range map[string]float64{"decode_qft64": 3, "encode_qft64": 1.5, "submit_miss": 3} {
		if s := bench.Speedup[name]; s < want {
			t.Errorf("%s speedup %v, want ≥ %v", name, s, want)
		}
	}
}
