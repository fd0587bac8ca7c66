// Command linq compiles a Table II benchmark for a TILT device and reports
// the compilation and simulation metrics (the per-application view of
// Tables II–III and Fig. 6). Ctrl-C cancels a long compile.
//
// The backend comes from the registry: the device flags assemble a
// tilt:// URI under the hood, and -backend accepts any registered URI
// directly — including linqd://host:port for remote execution on a daemon.
//
// Usage:
//
//	linq -bench QFT -ions 64 -head 16 [-maxswaplen 14] [-inserter linq|stochastic] [-passes] [-v]
//	linq -bench QFT -backend "tilt://?ions=64&head=16&optimize=1"
//	linq -bench BV -backend linqd://127.0.0.1:8080?backend=TILT
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/url"
	"os"
	"os/signal"
	"strconv"
	"syscall"

	tilt "repro"
	"repro/internal/noise"
	"repro/internal/render"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("linq: ")

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return // -h / -help: usage already printed, exit clean
		}
		log.Fatal(err)
	}
}

// run is the testable body of the command: it parses args, opens the
// backend through the registry, compiles and simulates the benchmark, and
// writes the report to out.
func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("linq", flag.ContinueOnError)
	var (
		bench      = fs.String("bench", "QFT", "benchmark name (ADDER, BV, QAOA, RCS, QFT, SQRT)")
		backendURI = fs.String("backend", "", "backend URI for tilt.Open (e.g. tilt://?ions=64&head=16, linqd://127.0.0.1:8080); overrides the device flags")
		ions       = fs.Int("ions", 0, "chain length (0 = benchmark width)")
		head       = fs.Int("head", 16, "tape head size")
		maxSwapLen = fs.Int("maxswaplen", 0, "max swap span (0 = head-1)")
		alpha      = fs.Float64("alpha", 0, "Eq.1 lookahead discount (0 = default 0.7)")
		inserter   = fs.String("inserter", "linq", "swap inserter: linq or stochastic")
		seed       = fs.Int64("seed", 1, "seed for the stochastic inserter")
		passes     = fs.Bool("passes", false, "print per-pass compile stats")
		verbose    = fs.Bool("v", false, "print the tape itinerary")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	bm, err := tilt.BenchmarkByName(*bench)
	if err != nil {
		return err
	}
	uri := *backendURI
	if uri == "" {
		// The device flags are sugar for a tilt:// registry URI.
		q := url.Values{}
		q.Set("ions", strconv.Itoa(*ions))
		q.Set("head", strconv.Itoa(*head))
		q.Set("maxswaplen", strconv.Itoa(*maxSwapLen))
		q.Set("alpha", strconv.FormatFloat(*alpha, 'g', -1, 64))
		q.Set("inserter", *inserter)
		q.Set("seed", strconv.FormatInt(*seed, 10))
		uri = "tilt://?" + q.Encode()
	}
	be, err := tilt.Open(ctx, uri)
	if err != nil {
		return err
	}

	art, err := be.Compile(ctx, bm.Circuit)
	if err != nil {
		return err
	}
	res, err := be.Simulate(ctx, art)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "benchmark      %s (%s)\n", bm.Name, bm.Comm)
	fmt.Fprintf(out, "backend        %s\n", be.Name())
	fmt.Fprintf(out, "2Q gates       %d (CNOT-level)\n", tilt.TwoQubitGateCount(bm.Circuit))
	if cr := art.Compile; cr != nil {
		fmt.Fprintf(out, "native gates   %d (%d XX)\n", cr.Native.Len(), cr.Native.TwoQubitCount())
	}
	if ts := res.TILT; ts != nil {
		fmt.Fprintf(out, "qubits         %d on a %d-ion chain, head %d\n",
			bm.Qubits(), ts.Device.NumIons, ts.Device.HeadSize)
		fmt.Fprintf(out, "swaps          %d (opposing %d, ratio %.2f)\n",
			ts.SwapCount, ts.OpposingSwaps, ts.OpposingRatio())
		fmt.Fprintf(out, "tape moves     %d, travel %d spacings\n", ts.Moves, ts.DistSpacings)
		fmt.Fprintf(out, "t_swap         %v\n", ts.TSwap)
		fmt.Fprintf(out, "t_move         %v\n", ts.TMove)
	} else {
		fmt.Fprintf(out, "qubits         %d\n", bm.Qubits())
	}
	fmt.Fprintf(out, "success rate   %.6g (log %.4f)\n", res.SuccessRate, res.LogSuccess)
	fmt.Fprintf(out, "exec time      %.3f s\n", res.ExecTimeUs/1e6)
	fmt.Fprintf(out, "mean 2Q fid    %.6f\n", res.MeanTwoQubitFidelity)

	if *passes {
		if res.TILT == nil {
			return fmt.Errorf("-passes needs a TILT backend (got %s)", be.Name())
		}
		fmt.Fprintln(out)
		writePassTable(out, res.TILT.Passes)
	}

	if *verbose {
		cr := art.Compile
		if cr == nil || res.TILT == nil {
			return fmt.Errorf("-v needs a local TILT backend with a compiled schedule (got %s)", be.Name())
		}
		dev := res.TILT.Device
		fmt.Fprintln(out)
		fmt.Fprintln(out, render.Summary(cr.Physical, cr.Schedule, dev))
		fmt.Fprintln(out)
		fmt.Fprint(out, render.Timeline(cr.Schedule, dev))
		fmt.Fprintln(out)
		prof := render.Profile(cr.Physical, cr.Schedule, dev, noise.Default())
		fmt.Fprint(out, render.FormatProfile(prof))
	}
	return nil
}

// writePassTable renders the per-pass timing records.
func writePassTable(out io.Writer, passes []tilt.PassTiming) {
	fmt.Fprintf(out, "%-3s %-14s %12s %8s %8s %7s\n", "#", "pass", "wall", "gates<", "gates>", "delta")
	for _, p := range passes {
		fmt.Fprintf(out, "%-3d %-14s %12v %8d %8d %+7d\n",
			p.Index, p.Pass, p.Wall, p.GatesBefore, p.GatesAfter, p.GateDelta())
	}
}
