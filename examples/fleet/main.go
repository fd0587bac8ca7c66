// Fleet walkthrough: discover a linqfleet supervisor's serving members,
// compose them into one telemetry-routed Pool backend, and run a batch
// through it with queue-depth-weighted routing and hedged requests.
//
// Start a supervised fleet first, then point the example at it:
//
//	go build -o /tmp/linqd ./cmd/linqd
//	go run ./cmd/linqfleet -linqd /tmp/linqd -min 2 -addr 127.0.0.1:9090 &
//	go run ./examples/fleet -fleet 127.0.0.1:9090
//
// The example polls GET /v1/fleet for the member census, opens a Remote
// client per serving member, and builds the pool with the live-routing
// options: the pool's health sampler steers new circuits toward shallow
// queues, PoolWithHedging races a second attempt on the next-best member
// when the first is slow, and PoolWithAdmissionControl sheds load when
// every member reports a deep queue. Because the pool is a plain Backend,
// the batch below is the same runner.Run call a single in-process engine
// would use.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"strings"
	"time"

	tilt "repro"
	"repro/runner"
)

// fleetStatus is the subset of linqfleet's GET /v1/fleet payload the
// walkthrough needs: which members exist and which are serving.
type fleetStatus struct {
	Members []struct {
		Slot   int    `json:"slot"`
		Addr   string `json:"addr"`
		State  string `json:"state"`
		Queued int    `json:"queued"`
	} `json:"members"`
	Min       int `json:"min"`
	Max       int `json:"max"`
	HighWater int `json:"high_water"`
	ScaleUps  int `json:"scale_ups"`
	Restarts  int `json:"restarts"`
}

func main() {
	log.SetFlags(0)
	fleetAddr := flag.String("fleet", "127.0.0.1:9090", "linqfleet supervisor address")
	target := flag.String("backend", "TILT", "daemon-side backend pool on each member")
	width := flag.Int("n", 24, "GHZ width to run (must be at least each daemon's head size)")
	hedge := flag.Duration("hedge", 50*time.Millisecond, "hedge a second attempt after this delay")
	flag.Parse()
	ctx := context.Background()

	// Member discovery: the supervisor's census is the source of truth for
	// which daemons are serving right now (draining and restarting members
	// are excluded — the pool should never route new work at them).
	st, err := census(ctx, *fleetAddr)
	if err != nil {
		log.Fatalf("linqfleet at %s: %v (start one with: go run ./cmd/linqfleet -linqd <linqd> -addr %s)",
			*fleetAddr, err, *fleetAddr)
	}
	var members []tilt.Backend
	var addrs []string
	for _, m := range st.Members {
		if m.State != "serving" {
			continue
		}
		members = append(members, tilt.Remote(m.Addr, tilt.RemoteTarget(*target)))
		addrs = append(addrs, m.Addr)
	}
	if len(members) == 0 {
		log.Fatalf("fleet at %s has no serving members yet: %+v", *fleetAddr, st)
	}
	fmt.Printf("fleet: %d/%d members serving (high-water %d, %d scale-ups, %d restarts so far)\n",
		len(members), st.Max, st.HighWater, st.ScaleUps, st.Restarts)
	fmt.Printf("members: %s\n\n", strings.Join(addrs, ", "))

	// One Backend over the whole fleet. The registry makes the pool's own
	// routing telemetry (linq_fleet_* families) scrapeable afterwards.
	reg := tilt.NewMetricsRegistry()
	pool, err := tilt.Pool(members,
		tilt.PoolWithSampleInterval(250*time.Millisecond),
		tilt.PoolWithHedging(*hedge),
		tilt.PoolWithAdmissionControl(64),
		tilt.PoolWithMetrics(reg),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer pool.Close()

	// A single circuit and then a batch — identical call sites to a local
	// backend; the pool decides which member runs what.
	bench := tilt.GHZ(*width)
	res, err := tilt.Execute(ctx, pool, bench.Circuit)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s via %s\n", bench.Name, pool)
	fmt.Printf("  success rate   %.4f\n", res.SuccessRate)
	fmt.Printf("  execution time %.2f ms\n\n", res.ExecTimeUs/1000)

	widths := []int{*width, *width + 2, *width + 4, *width + 6}
	jobs := make([]runner.Job, len(widths))
	for i, w := range widths {
		jobs[i] = runner.Job{Name: fmt.Sprintf("GHZ-%d", w), Backend: pool, Circuit: tilt.GHZ(w).Circuit}
	}
	fmt.Println("batch across the fleet:")
	for _, jr := range runner.Run(ctx, jobs, runner.WithWorkers(len(members)*2)) {
		if jr.Err != nil {
			log.Fatalf("  %s: %v", jr.Name, jr.Err)
		}
		fmt.Printf("  %-8s success %.4f in %v\n", jr.Name, jr.Result.SuccessRate, jr.Elapsed.Round(0))
	}

	// The pool's routing telemetry: queue-depth samples per endpoint, hedges
	// fired and won, admission refusals. Give the background sampler one
	// more sweep so the per-endpoint gauges reflect the batch.
	time.Sleep(300 * time.Millisecond)
	fmt.Println("\nrouting telemetry (linq_fleet_* families):")
	var expo strings.Builder
	if err := reg.WritePrometheus(&expo); err != nil {
		log.Fatal(err)
	}
	for _, line := range strings.Split(expo.String(), "\n") {
		if strings.HasPrefix(line, "linq_fleet_") {
			fmt.Println("  " + line)
		}
	}
	_ = os.Stdout.Sync()
}

// census fetches GET /v1/fleet from the supervisor.
func census(ctx context.Context, addr string) (fleetStatus, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+"/v1/fleet", nil)
	if err != nil {
		return fleetStatus{}, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return fleetStatus{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fleetStatus{}, fmt.Errorf("GET /v1/fleet: HTTP %d", resp.StatusCode)
	}
	var st fleetStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return fleetStatus{}, err
	}
	return st, nil
}
