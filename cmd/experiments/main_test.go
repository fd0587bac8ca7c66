package main

import (
	"context"
	"os"
	"strings"
	"testing"
)

// TestRunMatchesGolden pins every deterministic artifact byte for byte.
// -table3 is left out because it prints wall-clock compile times. After a
// deliberate change to the printed numbers, regenerate the file from the
// repository root with
//
//	go run ./cmd/experiments -table2 -fig6 -fig7 -fig8 -mc -mc-shots 200 -extensions > cmd/experiments/testdata/experiments.golden
func TestRunMatchesGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/experiments.golden")
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	args := []string{"-table2", "-fig6", "-fig7", "-fig8", "-mc", "-mc-shots", "200", "-extensions"}
	if err := run(context.Background(), args, &out); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("output differs from testdata/experiments.golden at line %d:\n got: %q\nwant: %q", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("output has %d lines, testdata/experiments.golden has %d", len(gl), len(wl))
	}
}

func TestRunTable2Smoke(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), []string{"-table2"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"Table II", "QFT", "ADDER"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "Table III") {
		t.Error("-table2 also produced Table III")
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), []string{"-nope"}, &out); err == nil {
		t.Error("bad flag accepted")
	}
}

func TestRunHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out strings.Builder
	if err := run(ctx, []string{"-fig6"}, &out); err == nil {
		t.Error("cancelled fig6 run reported success")
	}
}

func TestRunBackendSuiteFlag(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), []string{"-backend", "idealti://", "-bench", "BV"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"IdealTI", "BV"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
	if err := run(context.Background(), []string{"-backend", "nope://"}, &out); err == nil {
		t.Error("unknown scheme accepted")
	}
	if err := run(context.Background(), []string{"-bench", "BV"}, &out); err == nil {
		t.Error("-bench without -backend accepted")
	}
}
