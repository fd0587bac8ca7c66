package core

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/circuit"
	"repro/internal/mapping"
	"repro/internal/pipeline"
	"repro/internal/qsim"
	"repro/internal/swapins"
)

// FuzzCompile decodes the input into a circuit of at most 8 qubits over every
// unitary gate kind the decomposer accepts, a device and a compiler config,
// and requires CompileWith to
//   - equal monolithicCompile, the phases called directly, field for field;
//   - produce a schedule that validates against the physical circuit;
//   - preserve semantics: the physical circuit, closed by the SWAPs back to
//     the initial mapping, acts as both the native and the input circuit
//     placed by the initial mapping;
//   - record each pass in order, each record's GatesBefore equal to the
//     previous record's GatesAfter, and the counts those of the input, the
//     final native and the physical circuit where each comes into being.
//
// Input layout: byte 0 picks the width (2–8), byte 1 the extra ions past the
// width (0–3), byte 2 the head size, byte 3 MaxSwapLen (0 = default), byte 4
// the flags (bit 0 optimize, bit 1 the stochastic inserter, bits 2–3 the
// placement), byte 5 the stochastic inserter's trials and seed; every
// following pair of bytes, up to 48 pairs, is one gate: the kind and angle
// from the first, the operands from the second.
func FuzzCompile(f *testing.F) {
	f.Add([]byte{8, 0, 4, 0, 0, 0, 12, 0x19, 17, 0x42, 14, 0x90, 4, 0x05})
	f.Add([]byte{6, 3, 3, 1, 0b0111, 9, 30, 0xb0, 7, 0x1c, 11, 0x4b, 35, 0xa5, 15, 0xff, 0, 1})
	f.Add([]byte{8, 1, 2, 0, 0b1001, 2, 9, 0x01, 10, 0x02, 11, 0x03, 11, 0x03, 12, 0x07})
	f.Add([]byte{2, 0, 2, 0, 0b1010, 0, 17, 0x00, 13, 0x01})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		n := 2 + int(data[0])%7
		ions := n + int(data[1])%4
		head := 2 + int(data[2])%(ions-1)
		cfg := Config{
			Device:    deviceFor(ions, head),
			Placement: []mapping.Strategy{mapping.GreedyPlacement, mapping.ProgramOrderPlacement, mapping.IdentityPlacement}[int(data[4]>>2)%3],
			Inserter:  swapins.LinQ{},
			Swap:      swapins.Options{MaxSwapLen: int(data[3]) % head},
			Optimize:  data[4]&1 != 0,
		}
		if data[4]&2 != 0 {
			cfg.Inserter = swapins.Stochastic{Trials: 1 + int(data[5])%4, Seed: int64(data[5])}
		}

		body := data[6:]
		if len(body) > 2*48 {
			body = body[:2*48]
		}
		c := circuit.New(n)
		for ; len(body) >= 2; body = body[2:] {
			a, b := int(body[0]), int(body[1])
			kind := circuit.Kind(a % int(circuit.Measure)) // every kind before Measure is unitary
			theta := 0.0
			if kind.Parameterized() {
				theta = float64(a/int(circuit.Measure)+1) * math.Pi / 16
			}
			q0 := b % n
			q1 := (q0 + 1 + (b/n)%(n-1)) % n
			switch kind.Arity() {
			case 1:
				c.MustAdd(kind, theta, q0)
			case 2:
				c.MustAdd(kind, theta, q0, q1)
			default:
				if n < 3 {
					continue
				}
				q2 := (q1 + 1) % n
				if q2 == q0 {
					q2 = (q0 + 1) % n
				}
				c.MustAdd(kind, theta, q0, q1, q2)
			}
		}
		label := fmt.Sprintf("%d qubits, %d gates, config %+v", n, c.Len(), cfg)

		cr, err := CompileWith(context.Background(), c, cfg)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		want := monolithicCompile(t, c, cfg)
		assertCompileParity(t, label, cr, want)
		if cr.Device != want.Device || cr.Input != c {
			t.Errorf("%s: device %+v and input %p, want %+v and %p", label, cr.Device, cr.Input, want.Device, c)
		}

		if err := cr.Schedule.Validate(cr.Physical, cfg.Device); err != nil {
			t.Fatalf("%s: schedule invalid: %v", label, err)
		}

		closed := closedPhysical(cr)
		perm := cr.InitialMapping.LogicalToPhysical()
		if !qsim.EquivalentUnderPermutation(cr.Native, closed, perm, 2, 77) {
			t.Fatalf("%s: physical circuit is not the native one under the final mapping", label)
		}
		if !qsim.EquivalentUnderPermutation(c, closed, perm, 2, 78) {
			t.Fatalf("%s: physical circuit is not the input one under the final mapping", label)
		}

		names := []string{pipeline.NameDecompose}
		if cfg.Optimize {
			names = append(names, pipeline.NameOptimize)
		}
		names = append(names, pipeline.NamePlace, pipeline.NameInsertSwaps, pipeline.NameSchedule)
		got := make([]string, len(cr.Timings))
		gates := c.Len()
		for i, tt := range cr.Timings {
			got[i] = tt.Pass
			if tt.Index != i || tt.GatesBefore != gates {
				t.Errorf("%s: record %d = %+v, want index %d and GatesBefore %d", label, i, tt, i, gates)
			}
			if tt.Pass == pipeline.NamePlace && gates != cr.Native.Len() {
				t.Errorf("%s: place GatesBefore %d, native circuit has %d gates", label, gates, cr.Native.Len())
			}
			gates = tt.GatesAfter
		}
		if !reflect.DeepEqual(got, names) {
			t.Fatalf("%s: pass records %v, want %v", label, got, names)
		}
		if gates != cr.Physical.Len() {
			t.Errorf("%s: last GatesAfter %d, physical circuit has %d gates", label, gates, cr.Physical.Len())
		}
	})
}
