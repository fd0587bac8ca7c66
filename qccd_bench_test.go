package tilt_test

import (
	"context"
	"crypto/sha256"
	"fmt"
	"testing"

	tilt "repro"
	"repro/internal/decompose"
	"repro/internal/device"
	"repro/internal/qccd"
	"repro/internal/workloads"
)

// BENCH_qccd.json has BENCH_kernels.json's shape: ns/op of the QCCD
// machine model and its capacity sweep on the parent commit and on the
// change, each row with a digest of the Results it computed.
const (
	qccdBenchFile = "BENCH_qccd.json"
	qccdEnv       = "LINQ_BENCH_QCCD"
	qccdCommand   = "go test -run TestGenerateQCCDBench -count=1 ."
)

// qccdDescriptions names each measured operation's workload.
var qccdDescriptions = map[string]string{
	"run_qft":    "BenchmarkRunQFT: one QCCD machine (64 qubits, capacity 17) running native QFT-64",
	"sweep_qaoa": "BenchmarkCapacitySweepQAOA: RunBestCapacity over the default capacities 15–35 on native QAOA-64 (depth 10)",
	"sweep_table2_mix": "RunBestCapacity over the default capacities 15–35 on the six Table II families " +
		"(workloads.Scaled, seeded by width) at widths 16, 40 and 64, lowered to native gates: 18 sweeps per op",
}

// qccdSetups builds each row's operation, keyed as in qccdDescriptions.
// An operation returns the Results it computed.
var qccdSetups = map[string]func() func() ([]*qccd.Result, error){
	"run_qft": func() func() ([]*qccd.Result, error) {
		nat := decompose.ToNative(workloads.QFT().Circuit)
		dev := device.QCCD{NumQubits: 64, Capacity: 17}
		return func() ([]*qccd.Result, error) {
			r, err := qccd.Run(context.Background(), nat, dev, tilt.DefaultNoise())
			return []*qccd.Result{r}, err
		}
	},
	"sweep_qaoa": func() func() ([]*qccd.Result, error) {
		return sweepOp(decompose.ToNative(workloads.QAOA().Circuit))
	},
	"sweep_table2_mix": func() func() ([]*qccd.Result, error) {
		var nats []*tilt.Circuit
		for _, w := range []int{16, 40, 64} {
			for _, bm := range workloads.Scaled(w, int64(w)) {
				nats = append(nats, decompose.ToNative(bm.Circuit))
			}
		}
		return sweepOp(nats...)
	},
}

// sweepOp runs the default capacity sweep on each circuit in turn.
func sweepOp(nats ...*tilt.Circuit) func() ([]*qccd.Result, error) {
	return func() ([]*qccd.Result, error) {
		var out []*qccd.Result
		for _, nat := range nats {
			r, err := qccd.RunBestCapacity(context.Background(), nat, nat.NumQubits(), nil, tilt.DefaultNoise())
			if err != nil {
				return nil, err
			}
			out = append(out, r)
		}
		return out, nil
	}
}

// qccdDigest fingerprints Results field by field, integers in binary and
// floats in %b, so a digest changes with any bit of any field.
func qccdDigest(rs []*qccd.Result) string {
	h := sha256.New()
	for _, r := range rs {
		fmt.Fprintf(h, "%b\n", *r)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestGenerateQCCDBench measures the QCCD rows and writes this commit's
// side of BENCH_qccd.json, keeping the other side; gated like
// TestGenerateKernelsBench:
//
//	LINQ_BENCH_QCCD=parent go test -run TestGenerateQCCDBench -count=1 .   # on the parent
//	LINQ_BENCH_QCCD=change go test -run TestGenerateQCCDBench -count=1 .   # on the change
func TestGenerateQCCDBench(t *testing.T) {
	side := benchSide(t, qccdEnv, qccdBenchFile)
	setups := map[string]func(testing.TB) func(*testing.B){}
	digests := map[string]string{}
	for name, setup := range qccdSetups {
		op := setup()
		rs, err := op()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		digests[name] = qccdDigest(rs)
		setups[name] = func(testing.TB) func(*testing.B) {
			return func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := op(); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
	}
	rows := measureKernels(t, side, setups)
	for name, d := range digests {
		r := rows[name]
		r.Digest = d
		rows[name] = r
	}
	writeBenchSide(t, qccdBenchFile, "qccd", qccdEnv, qccdCommand, side, qccdDescriptions, rows)
}

// TestQCCDBenchArtifact keeps the committed BENCH_qccd.json honest: the
// generic artifact checks, both sides computing bit-identical Results on
// every row, and the claim the file backs — the shared routing index,
// hoisted noise logarithms and in-place chains make the Table II capacity
// sweep at least 2.5× faster.
func TestQCCDBenchArtifact(t *testing.T) {
	bench := readBenchArtifact(t, qccdBenchFile, "qccd", qccdEnv, qccdCommand, qccdDescriptions)
	for name := range qccdDescriptions {
		p, c := bench.Sides["parent"].Results[name], bench.Sides["change"].Results[name]
		if p.Digest == "" || p.Digest != c.Digest {
			t.Errorf("%s: parent digest %q, change %q; want equal and set", name, p.Digest, c.Digest)
		}
	}
	if s := bench.Speedup["sweep_table2_mix"]; s < 2.5 {
		t.Errorf("sweep_table2_mix speedup %v, want ≥ 2.5", s)
	}
}
