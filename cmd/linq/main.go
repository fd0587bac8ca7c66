// Command linq compiles a quantum circuit — a Table II benchmark or an
// OpenQASM 2.0 file — for a TILT device and reports the compilation and
// simulation metrics (the per-application view of Tables II–III and
// Fig. 6), optionally next to the IdealTI and QCCD baselines (Fig. 8).
// Ctrl-C cancels a long compile.
//
// The backend comes from the registry: the device and noise flags assemble
// a tilt:// URI, each flag under its own query key, and -backend accepts any
// registered URI directly — including linqd://host:port for remote
// execution on a daemon. -backend cannot be combined with those flags.
//
// Usage:
//
//	linq -bench QFT -ions 64 -head 16 [-maxswaplen 14] [-inserter linq|stochastic] [-passes] [-v]
//	linq -qasm circuit.qasm -head 32 -gamma 2e-6 -epsilon 1e-4 -cooling 8
//	linq -bench QFT -compare              # adds IdealTI and QCCD rows
//	linq -bench BV -emit out.qasm         # dump the compiled physical program
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
	"strings"
	"syscall"

	tilt "repro"
	"repro/internal/noise"
	"repro/internal/qasm"
	"repro/internal/render"
	"repro/runner"
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

// uriFlags are the flags that assemble the tilt:// URI; each one's name is
// its query key.
var uriFlags = []string{"ions", "head", "maxswaplen", "alpha", "inserter", "seed", "optimize",
	"gamma", "epsilon", "k0", "cooling"}

// run is the testable body of the command: it parses args, opens the
// backend through the registry, compiles and simulates the circuit, and
// writes the report to out.
func run(ctx context.Context, args []string, out io.Writer) error {
	def := noise.Default()
	fs := flag.NewFlagSet("linq", flag.ContinueOnError)
	// These eleven only feed the tilt:// URI, read back through uriFlags.
	fs.Int("ions", 0, "chain length (0 = circuit width)")
	fs.Int("head", 16, "tape head size")
	fs.Int("maxswaplen", 0, "max swap span (0 = head-1)")
	fs.Float64("alpha", 0, "Eq.1 lookahead discount (0 = default 0.7)")
	fs.String("inserter", "linq", "swap inserter: linq or stochastic")
	fs.Int64("seed", 1, "seed for the stochastic inserter")
	fs.Float64("gamma", def.Gamma, "background heating rate, 1/µs")
	fs.Float64("epsilon", def.Epsilon, "two-qubit residual error")
	fs.Float64("k0", def.K0, "per-shuttle heating scale")
	fs.Int("cooling", 0, "sympathetic cooling interval in moves (0 = off)")
	fs.Bool("optimize", false, "run the peephole optimizer")
	var (
		bench      = fs.String("bench", "QFT", "benchmark name (ADDER, BV, QAOA, RCS, QFT, SQRT)")
		qasmPath   = fs.String("qasm", "", "OpenQASM 2.0 input file (instead of -bench)")
		backendURI = fs.String("backend", "", "backend URI for tilt.Open (e.g. tilt://?ions=64&head=16, linqd://127.0.0.1:8080); replaces the device and noise flags")
		compare    = fs.Bool("compare", false, "also simulate IdealTI and QCCD with the same query")
		emit       = fs.String("emit", "", "write the compiled physical program as QASM")
		passes     = fs.Bool("passes", false, "print per-pass compile stats")
		verbose    = fs.Bool("v", false, "print the tape itinerary")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })

	c, title, err := loadCircuit(*bench, *qasmPath, set)
	if err != nil {
		return err
	}
	// The device and noise flags are sugar for a tilt:// registry URI.
	q := url.Values{}
	var clash []string
	for _, f := range uriFlags {
		q.Set(f, fs.Lookup(f).Value.String())
		if set[f] {
			clash = append(clash, "-"+f)
		}
	}
	uri := "tilt://?" + q.Encode()
	if *backendURI != "" {
		if len(clash) > 0 {
			return fmt.Errorf("-backend cannot be combined with %s; put them in the URI instead",
				strings.Join(clash, ", "))
		}
		uri = *backendURI
	}
	be, err := tilt.Open(ctx, uri)
	if err != nil {
		return err
	}

	art, err := be.Compile(ctx, c)
	if err != nil {
		return err
	}
	res, err := be.Simulate(ctx, art)
	if err != nil {
		return err
	}

	fmt.Fprintln(out, title)
	fmt.Fprintf(out, "backend        %s\n", be.Name())
	fmt.Fprintf(out, "2Q gates       %d (CNOT-level)\n", tilt.TwoQubitGateCount(c))
	if cr := art.Compile; cr != nil {
		fmt.Fprintf(out, "native gates   %d (%d XX)\n", cr.Native.Len(), cr.Native.TwoQubitCount())
	}
	if ts := res.TILT; ts != nil {
		fmt.Fprintf(out, "qubits         %d on a %d-ion chain, head %d\n",
			c.NumQubits(), ts.Device.NumIons, ts.Device.HeadSize)
		for _, p := range ts.Passes {
			if p.Pass == tilt.PassOptimize {
				st := ts.OptStats
				fmt.Fprintf(out, "optimizer      removed %d gates (%d merges, %d cancellations, %d identities)\n",
					st.Total(), st.MergedRotations, st.CancelledPairs, st.DroppedIdentity)
			}
		}
		fmt.Fprintf(out, "swaps          %d (opposing %d, ratio %.2f)\n",
			ts.SwapCount, ts.OpposingSwaps, ts.OpposingRatio())
		fmt.Fprintf(out, "tape moves     %d, travel %d spacings\n", ts.Moves, ts.DistSpacings)
		fmt.Fprintf(out, "t_swap         %v\n", ts.TSwap)
		fmt.Fprintf(out, "t_move         %v\n", ts.TMove)
	} else {
		fmt.Fprintf(out, "qubits         %d\n", c.NumQubits())
	}
	fmt.Fprintf(out, "success rate   %.6g (log %.4f)\n", res.SuccessRate, res.LogSuccess)
	fmt.Fprintf(out, "exec time      %.3f s\n", res.ExecTimeUs/1e6)
	fmt.Fprintf(out, "mean 2Q fid    %.6f\n", res.MeanTwoQubitFidelity)

	if *compare {
		if err := writeBaselines(ctx, out, c, uri); err != nil {
			return err
		}
	}

	if *passes {
		if res.TILT == nil {
			return fmt.Errorf("-passes needs a TILT backend (got %s)", be.Name())
		}
		fmt.Fprintln(out)
		writePassTable(out, res.TILT.Passes)
	}

	cr := art.Compile
	local := cr != nil && res.TILT != nil
	if *emit != "" {
		if !local {
			return fmt.Errorf("-emit needs a local TILT backend with a compiled schedule (got %s)", be.Name())
		}
		src, err := qasm.Write(cr.Physical)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*emit, []byte(src), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote compiled program to %s\n", *emit)
	}

	if *verbose {
		if !local {
			return fmt.Errorf("-v needs a local TILT backend with a compiled schedule (got %s)", be.Name())
		}
		dev := res.TILT.Device
		fmt.Fprintln(out)
		fmt.Fprintln(out, render.Summary(cr.Physical, cr.Schedule, dev))
		fmt.Fprintln(out)
		fmt.Fprint(out, render.Timeline(cr.Schedule, dev))
		fmt.Fprintln(out)
		prof := render.Profile(cr.Physical, cr.Schedule, dev, art.Noise())
		fmt.Fprint(out, render.FormatProfile(prof))
	}
	return nil
}

// loadCircuit reads the input named by -bench or -qasm and returns it with
// the report's first line. -bench defaults to QFT, so only an explicit
// -bench clashes with -qasm.
func loadCircuit(bench, qasmPath string, set map[string]bool) (*tilt.Circuit, string, error) {
	switch {
	case set["bench"] && qasmPath != "":
		return nil, "", errors.New("pass either -bench or -qasm, not both")
	case qasmPath != "":
		src, err := os.ReadFile(qasmPath)
		if err != nil {
			return nil, "", err
		}
		c, err := qasm.Parse(string(src))
		if err != nil {
			return nil, "", err
		}
		return c, fmt.Sprintf("circuit        %s (%d qubits, %d gates)", qasmPath, c.NumQubits(), c.Len()), nil
	case bench != "":
		bm, err := tilt.BenchmarkByName(bench)
		if err != nil {
			return nil, "", err
		}
		return bm.Circuit, fmt.Sprintf("benchmark      %s (%s)", bm.Name, bm.Comm), nil
	}
	return nil, "", errors.New("pass -bench or -qasm (see -help)")
}

// writeBaselines runs the circuit on IdealTI and QCCD, opened with the same
// query as the main backend, as one runner batch and prints both rows.
func writeBaselines(ctx context.Context, out io.Writer, c *tilt.Circuit, uri string) error {
	u, err := url.Parse(uri)
	if err != nil {
		return err
	}
	var batch []runner.Job
	for _, scheme := range []string{"idealti", "qccd"} {
		be, err := tilt.Open(ctx, scheme+"://?"+u.RawQuery)
		if err != nil {
			return fmt.Errorf("-compare: %w", err)
		}
		batch = append(batch, runner.Job{Name: scheme, Backend: be, Circuit: c})
	}
	results := runner.Run(ctx, batch)
	for _, jr := range results {
		if jr.Err != nil {
			return fmt.Errorf("%s: %w", jr.Name, jr.Err)
		}
	}
	ideal, qr := results[0].Result, results[1].Result
	fmt.Fprintf(out, "ideal TI       %.6g (log %.4f)\n", ideal.SuccessRate, ideal.LogSuccess)
	fmt.Fprintf(out, "QCCD (cap %2d)  %.6g (log %.4f)\n", qr.QCCD.Capacity, qr.SuccessRate, qr.LogSuccess)
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
