package tilt_test

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"sort"
	"sync"
	"testing"
	"time"

	tilt "repro"
	"repro/internal/jobs"
	"repro/internal/linqhttp"
)

// poolRoutingBench is the committed BENCH_pool_routing.json shape: p50/p99
// request latency per pool configuration on a 2-daemon fleet with one slow
// member.
type poolRoutingBench struct {
	Bench       string                    `json:"bench"`
	GeneratedBy string                    `json:"generated_by"`
	Fleet       poolRoutingFleet          `json:"fleet"`
	Requests    int                       `json:"requests"`
	Concurrency int                       `json:"concurrency"`
	Policies    map[string]poolRoutingRow `json:"policies"`
}

type poolRoutingFleet struct {
	Members           int `json:"members"`
	WorkersPerMember  int `json:"workers_per_member"`
	SlowMemberDelayMS int `json:"slow_member_delay_ms"`
}

type poolRoutingRow struct {
	P50MS float64 `json:"p50_ms"`
	P99MS float64 `json:"p99_ms"`
}

const poolRoutingBenchFile = "BENCH_pool_routing.json"

// startRoutingDaemon boots an in-process linqd API whose single TILT worker
// runs on the given backend — a slowBackend member gives the fleet a
// genuinely slow daemon whose queue depth is real, not simulated.
func startRoutingDaemon(t *testing.T, backend tilt.Backend) string {
	t.Helper()
	reg := tilt.NewMetricsRegistry()
	mgr, err := jobs.New([]jobs.Pool{
		{Name: "TILT", Backend: backend, Workers: 1},
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
	return srv.URL
}

// measureRoutingPolicy drives concurrent distinct circuits through the pool
// and returns per-request wall latencies.
func measureRoutingPolicy(t *testing.T, p *tilt.PoolBackend, requests, concurrency int) []time.Duration {
	t.Helper()
	ctx := context.Background()
	lat := make([]time.Duration, requests)
	var wg sync.WaitGroup
	per := requests / concurrency
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				n := w*per + i
				// Distinct widths defeat daemon-side dedup so every request
				// is a real execution.
				circ := tilt.GHZ(4 + n%13).Circuit
				start := time.Now()
				if _, err := tilt.Execute(ctx, p, circ); err != nil {
					t.Errorf("request %d: %v", n, err)
				}
				lat[n] = time.Since(start)
			}
		}(w)
	}
	wg.Wait()
	return lat
}

func percentileMS(lat []time.Duration, q float64) float64 {
	s := append([]time.Duration(nil), lat...)
	sort.Slice(s, func(i, k int) bool { return s[i] < s[k] })
	idx := int(q * float64(len(s)-1))
	return float64(s[idx]) / float64(time.Millisecond)
}

// TestGeneratePoolRoutingBench regenerates BENCH_pool_routing.json. Gated
// behind LINQ_BENCH_POOL_ROUTING=1 because it measures wall-clock latency
// distributions — meaningless under -race or a loaded CI box.
//
//	LINQ_BENCH_POOL_ROUTING=1 go test -run TestGeneratePoolRoutingBench -count=1 .
func TestGeneratePoolRoutingBench(t *testing.T) {
	if os.Getenv("LINQ_BENCH_POOL_ROUTING") == "" {
		t.Skip("set LINQ_BENCH_POOL_ROUTING=1 to regenerate " + poolRoutingBenchFile)
	}
	const (
		slowDelay   = 30 * time.Millisecond
		requests    = 64
		concurrency = 4
	)
	slowURL := startRoutingDaemon(t, &slowBackend{name: "TILT", delay: slowDelay})
	fastURL := startRoutingDaemon(t, tilt.NewTILT(tilt.WithDevice(0, 4)))

	members := func() []tilt.Backend {
		ropts := []tilt.RemoteOption{
			tilt.RemoteTarget("TILT"),
			tilt.RemotePollInterval(2*time.Millisecond, 20*time.Millisecond),
		}
		return []tilt.Backend{
			tilt.Remote(slowURL, ropts...),
			tilt.Remote(fastURL, ropts...),
		}
	}

	out := poolRoutingBench{
		Bench:       "pool_routing",
		GeneratedBy: "LINQ_BENCH_POOL_ROUTING=1 go test -run TestGeneratePoolRoutingBench -count=1 .",
		Fleet: poolRoutingFleet{
			Members:           2,
			WorkersPerMember:  1,
			SlowMemberDelayMS: int(slowDelay / time.Millisecond),
		},
		Requests:    requests,
		Concurrency: concurrency,
		Policies:    map[string]poolRoutingRow{},
	}
	for _, pol := range []struct {
		name string
		opts []tilt.PoolOption
	}{
		{"default", nil},
		{"sampled_20ms", []tilt.PoolOption{tilt.PoolWithSampleInterval(20 * time.Millisecond)}},
		{"hedged", []tilt.PoolOption{tilt.PoolWithHedging(15 * time.Millisecond)}},
	} {
		p, err := tilt.Pool(members(), pol.opts...)
		if err != nil {
			t.Fatal(err)
		}
		// Outlast the default 500ms sample period so every row routes on
		// a landed sample.
		time.Sleep(600 * time.Millisecond)
		lat := measureRoutingPolicy(t, p, requests, concurrency)
		p.Close()
		row := poolRoutingRow{P50MS: percentileMS(lat, 0.50), P99MS: percentileMS(lat, 0.99)}
		out.Policies[pol.name] = row
		t.Logf("%-18s p50 %.1fms  p99 %.1fms", pol.name, row.P50MS, row.P99MS)
	}

	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(poolRoutingBenchFile, append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", poolRoutingBenchFile)
}

// TestPoolRoutingBenchArtifact keeps the committed bench file honest: it
// must parse, cover every pool configuration, and carry sane distributions.
func TestPoolRoutingBenchArtifact(t *testing.T) {
	raw, err := os.ReadFile(poolRoutingBenchFile)
	if err != nil {
		t.Fatalf("%s missing (regenerate with LINQ_BENCH_POOL_ROUTING=1): %v", poolRoutingBenchFile, err)
	}
	var bench poolRoutingBench
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatalf("%s: %v", poolRoutingBenchFile, err)
	}
	if bench.Bench != "pool_routing" {
		t.Errorf("bench = %q", bench.Bench)
	}
	for _, pol := range []string{"default", "sampled_20ms", "hedged"} {
		row, ok := bench.Policies[pol]
		if !ok {
			t.Errorf("missing policy %q", pol)
			continue
		}
		if row.P50MS <= 0 || row.P99MS < row.P50MS {
			t.Errorf("%s: implausible p50 %.2fms / p99 %.2fms", pol, row.P50MS, row.P99MS)
		}
	}
	if bench.Fleet.Members < 2 {
		t.Errorf("fleet members = %d, want a 2-daemon fleet", bench.Fleet.Members)
	}
}
