package main

import (
	"context"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func TestRunHelpReturnsErrHelp(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), []string{"-h"}, &out); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("err = %v, want flag.ErrHelp (main exits 0 on it)", err)
	}
}

func TestRunSmoke(t *testing.T) {
	var out strings.Builder
	err := run(context.Background(), []string{"-bench", "BV", "-head", "16", "-passes"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"benchmark      BV", "swaps", "t_swap", "success rate", "insert-swaps", "schedule"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestRunRejectsUnknownBenchmark(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), []string{"-bench", "NOPE"}, &out); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestRunRejectsUnknownInserter(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), []string{"-bench", "BV", "-inserter", "magic"}, &out); err == nil {
		t.Error("unknown inserter accepted")
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), []string{"-definitely-not-a-flag"}, &out); err == nil {
		t.Error("bad flag accepted")
	}
}

func TestRunBackendURI(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), []string{"-bench", "BV", "-backend", "idealti://"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "backend        IdealTI") {
		t.Errorf("report missing backend name:\n%s", out.String())
	}

	// TILT-only views fail cleanly on a non-TILT backend.
	if err := run(context.Background(), []string{"-bench", "BV", "-backend", "idealti://", "-passes"}, &out); err == nil {
		t.Error("-passes on IdealTI accepted")
	}
	// Malformed URIs surface Open's error.
	if err := run(context.Background(), []string{"-bench", "BV", "-backend", "nope://"}, &out); err == nil {
		t.Error("unknown scheme accepted")
	}
}

const tinyQASM = `OPENQASM 2.0;
include "qelib1.inc";
qreg q[4];
h q[0];
cx q[0],q[1];
cx q[1],q[2];
cx q[2],q[3];
`

func writeTinyQASM(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ghz.qasm")
	if err := os.WriteFile(path, []byte(tinyQASM), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// runOK runs the command and fails the test on an error.
func runOK(t *testing.T, args ...string) string {
	t.Helper()
	var out strings.Builder
	if err := run(context.Background(), args, &out); err != nil {
		t.Fatalf("linq %s: %v", strings.Join(args, " "), err)
	}
	return out.String()
}

// runErr runs the command and requires an error containing want.
func runErr(t *testing.T, want string, args ...string) {
	t.Helper()
	var out strings.Builder
	if err := run(context.Background(), args, &out); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("linq %s: err = %v, want it to contain %q", strings.Join(args, " "), err, want)
	}
}

// logSuccess reads the log success rate from a report line starting with
// label.
func logSuccess(t *testing.T, out, label string) float64 {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		rest, ok := strings.CutPrefix(line, label)
		if !ok {
			continue
		}
		_, after, ok := strings.Cut(rest, "(log ")
		if !ok {
			break
		}
		v, err := strconv.ParseFloat(strings.TrimSuffix(after, ")"), 64)
		if err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		return v
	}
	t.Fatalf("no %q line in:\n%s", label, out)
	return 0
}

func TestRunQASMSmoke(t *testing.T) {
	got := runOK(t, "-qasm", writeTinyQASM(t), "-head", "2", "-passes")
	for _, want := range []string{"circuit", "4 qubits", "success rate", "decompose", "schedule"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestRunEmitWritesCompiledProgram(t *testing.T) {
	emit := filepath.Join(t.TempDir(), "out.qasm")
	runOK(t, "-qasm", writeTinyQASM(t), "-head", "2", "-emit", emit)
	src, err := os.ReadFile(emit)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(src), "OPENQASM") {
		t.Errorf("emitted file is not QASM:\n%s", src)
	}
}

// TestRunEmitThenQASMRoundTrip: a program written by -emit reads back
// through -qasm and compiles again.
func TestRunEmitThenQASMRoundTrip(t *testing.T) {
	emit := filepath.Join(t.TempDir(), "bv.qasm")
	runOK(t, "-bench", "BV", "-head", "16", "-emit", emit)
	got := runOK(t, "-qasm", emit, "-head", "16")
	if !strings.Contains(got, "circuit        "+emit+" (64 qubits") {
		t.Errorf("re-read program is not the 64-qubit BV circuit:\n%s", got)
	}
}

func TestRunRejectsBenchAndQASMTogether(t *testing.T) {
	runErr(t, "not both", "-bench", "BV", "-qasm", "x.qasm")
}

func TestRunRequiresAnInput(t *testing.T) {
	runErr(t, "pass -bench or -qasm", "-bench", "")
}

// TestRunRejectsFlagsBesideBackend: -backend carries the whole device and
// noise configuration, so an explicit device or noise flag next to it is an
// error instead of being dropped.
func TestRunRejectsFlagsBesideBackend(t *testing.T) {
	runErr(t, "-backend cannot be combined with -head", "-bench", "BV", "-backend", "tilt://?head=8", "-head", "4")
	runErr(t, "-gamma", "-bench", "BV", "-backend", "tilt://?head=8", "-gamma", "2e-6")
	runErr(t, "-optimize", "-bench", "BV", "-backend", "idealti://", "-optimize")
	// Output flags are fine.
	runOK(t, "-bench", "BV", "-backend", "tilt://?head=8", "-passes")
}

// TestRunCompareReportsBothBaselines: -compare opens IdealTI and QCCD with
// the main backend's query, so a noise flag reaches the baselines too.
func TestRunCompareReportsBothBaselines(t *testing.T) {
	def := runOK(t, "-bench", "BV", "-compare")
	hot := runOK(t, "-bench", "BV", "-compare", "-gamma", "1e-4")
	for _, label := range []string{"ideal TI", "QCCD (cap"} {
		base, heated := logSuccess(t, def, label), logSuccess(t, hot, label)
		if !(heated < base) {
			t.Errorf("%s: log success %v with -gamma 1e-4, want below the default's %v", label, heated, base)
		}
	}
	if !strings.Contains(runOK(t, "-bench", "BV", "-backend", "idealti://?ions=64", "-compare"), "QCCD (cap") {
		t.Error("-compare after -backend printed no QCCD row")
	}
}

// TestRunNoiseFlags: each noise flag reaches the simulation, moving the
// success rate the way the noise model says it should.
func TestRunNoiseFlags(t *testing.T) {
	base := logSuccess(t, runOK(t, "-bench", "BV", "-head", "4"), "success rate")
	for _, tc := range []struct {
		flag, value string
		worse       bool
	}{
		{"-gamma", "1e-5", true},
		{"-epsilon", "1e-3", true},
		{"-k0", "1", true},
		{"-cooling", "1", false},
	} {
		got := logSuccess(t, runOK(t, "-bench", "BV", "-head", "4", tc.flag, tc.value), "success rate")
		if tc.worse != (got < base) || got == base {
			t.Errorf("%s %s: log success %v against the default's %v (want worse: %v)",
				tc.flag, tc.value, got, base, tc.worse)
		}
	}
	// Explicit values go in as given, so a negative one is rejected rather
	// than replaced by the default.
	runErr(t, "noise: negative Gamma -1", "-bench", "BV", "-gamma", "-1")
	runErr(t, "noise: negative cooling interval -2", "-bench", "BV", "-cooling", "-2")
	// ParseFloat accepts NaN; it must not print a NaN success rate.
	runErr(t, "noise: non-finite Gamma NaN", "-bench", "BV", "-gamma", "NaN")
	runErr(t, "noise: non-finite Epsilon +Inf", "-bench", "BV", "-epsilon", "Inf")
	runErr(t, "swapins: Alpha NaN outside (0,1)", "-bench", "BV", "-alpha", "NaN")
}

func TestRunOptimize(t *testing.T) {
	if got := runOK(t, "-bench", "BV", "-optimize"); !strings.Contains(got, "optimizer      removed") {
		t.Errorf("-optimize printed no optimizer line:\n%s", got)
	}
}

// TestRunScheduleViewsNeedLocalTILT: -emit and -v read the local compiled
// schedule, which a non-TILT backend does not have.
func TestRunScheduleViewsNeedLocalTILT(t *testing.T) {
	runErr(t, "-emit needs a local TILT backend", "-bench", "BV", "-backend", "idealti://",
		"-emit", filepath.Join(t.TempDir(), "x.qasm"))
	runErr(t, "-v needs a local TILT backend", "-bench", "BV", "-backend", "qccd://", "-v")
	if got := runOK(t, "-bench", "BV", "-v"); !strings.Contains(got, "success rate") {
		t.Errorf("-v report:\n%s", got)
	}
}
