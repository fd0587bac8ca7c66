// Remote execution: open a linqd daemon (or a whole fleet of them) through
// the backend registry and run a circuit on it with the exact same Backend
// API an in-process engine uses.
//
// Start a daemon first, then point the example at it:
//
//	go run ./cmd/linqd -addr 127.0.0.1:8080 &
//	go run ./examples/remote -addr 127.0.0.1:8080
//
// Pass a comma-separated list to fan work across several daemons through a
// Pool backend:
//
//	go run ./examples/remote -addr 127.0.0.1:8080,127.0.0.1:8081 -n 32
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"strings"

	tilt "repro"
	"repro/runner"
)

func main() {
	log.SetFlags(0)
	addr := flag.String("addr", "127.0.0.1:8080", "linqd address(es), comma-separated for a fleet")
	pool := flag.String("backend", "TILT", "daemon-side backend pool (TILT, QCCD, IdealTI)")
	n := flag.Int("n", 24, "GHZ width to run (must be at least the daemon's head size)")
	flag.Parse()
	ctx := context.Background()

	// Each daemon address opens through the registry: the linqd:// scheme
	// returns a client backend that satisfies the same Backend interface
	// as tilt.NewTILT — callers cannot tell where execution happens.
	var members []tilt.Backend
	for _, a := range strings.Split(*addr, ",") {
		be, err := tilt.Open(ctx, "linqd://"+strings.TrimSpace(a)+"?backend="+*pool)
		if err != nil {
			log.Fatal(err)
		}
		members = append(members, be)
	}
	be := members[0]
	if len(members) > 1 {
		// A Pool spreads circuits across the fleet, least-loaded by the
		// daemons' sampled queue depth plus in-flight calls, with
		// per-endpoint breakers, still as one Backend. Close stops its
		// health sampler.
		p, err := tilt.Pool(members)
		if err != nil {
			log.Fatal(err)
		}
		defer p.Close()
		be = p
		fmt.Printf("fanning out over %d daemons: %s\n", len(members), p)
	}

	bench := tilt.GHZ(*n)
	res, err := tilt.Execute(ctx, be, bench.Circuit)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s on %s\n", bench.Name, be.Name())
	fmt.Printf("  executed by      %s (daemon-side)\n", res.Backend)
	fmt.Printf("  success rate     %.4f (log %.4f)\n", res.SuccessRate, res.LogSuccess)
	fmt.Printf("  execution time   %.2f ms\n", res.ExecTimeUs/1000)
	if res.TILT != nil {
		fmt.Printf("  swaps / moves    %d / %d\n", res.TILT.SwapCount, res.TILT.Moves)
	}

	// A batch fans out through the runner exactly like local backends do;
	// results come back in job order no matter which daemon finishes first.
	widths := []int{*n, *n + 2, *n + 4}
	jobs := make([]runner.Job, len(widths))
	for i, w := range widths {
		jobs[i] = runner.Job{Name: fmt.Sprintf("GHZ-%d", w), Backend: be, Circuit: tilt.GHZ(w).Circuit}
	}
	fmt.Println("\nbatch over the same backend:")
	for _, jr := range runner.Run(ctx, jobs) {
		if jr.Err != nil {
			log.Fatalf("  %s: %v", jr.Name, jr.Err)
		}
		fmt.Printf("  %-8s success %.4f in %v\n", jr.Name, jr.Result.SuccessRate, jr.Elapsed.Round(0))
	}
}
