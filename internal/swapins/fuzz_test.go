package swapins

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/mapping"
)

// fuzzAlphas are the Eq. 1 discounts the fuzz target draws from: 0.5 keeps
// every weight a power of two, so equal scores sum to exactly equal floats
// and ties are common; 0.999 keeps a long lookahead's weights all near one.
var fuzzAlphas = [...]float64{0.5, 0.7, 0.999}

// FuzzLinQMatchesReference decodes the input into a native circuit of at
// most 12 qubits, a device and insertion options, and requires LinQ.Insert
// to match the full-scan reference inserter: the same physical circuit,
// swap count, opposing-swap count and final mapping.
//
// Input layout: byte 0 picks the width (2–12), byte 1 the extra ions past
// the width (0–3), byte 2 the head size, byte 3 MaxSwapLen (0 = default),
// byte 4 α from fuzzAlphas, byte 5 the lookahead (1–150); every following
// pair of bytes, up to 96 pairs, is one gate: the kind (RX, RY, RZ or XX)
// and angle from the first, the operands from both.
func FuzzLinQMatchesReference(f *testing.F) {
	f.Add([]byte{10, 0, 4, 0, 0, 149, 3, 0x19, 7, 0x42, 11, 0x90, 3, 0x05})
	f.Add([]byte{12, 2, 3, 1, 1, 7, 3, 0xb0, 7, 0x1c, 3, 0x4b, 7, 0xa5, 3, 0xff, 0, 1})
	f.Add([]byte{12, 0, 4, 2, 2, 40, 3, 0x0b, 7, 0x17, 11, 0x23, 15, 0x2f, 3, 0x3b, 7, 0x47})
	f.Add([]byte{8, 1, 2, 0, 0, 0, 3, 1, 3, 2, 3, 3})
	f.Add([]byte{2, 0, 2, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		n := 2 + int(data[0])%11
		ions := n + int(data[1])%4
		head := 2 + int(data[2])%(ions-1)
		dev := device.TILT{NumIons: ions, HeadSize: head}
		opt := Options{
			MaxSwapLen: int(data[3]) % head,
			Alpha:      fuzzAlphas[int(data[4])%len(fuzzAlphas)],
			Lookahead:  1 + int(data[5])%150,
		}

		body := data[6:]
		if len(body) > 2*96 {
			body = body[:2*96]
		}
		c := circuit.New(n)
		for ; len(body) >= 2; body = body[2:] {
			a, b := int(body[0]), int(body[1])
			theta := float64(a>>2+1) * math.Pi / 64
			q0 := b % n
			switch a % 4 {
			case 0:
				c.ApplyRX(theta, q0)
			case 1:
				c.ApplyRY(theta, q0)
			case 2:
				c.ApplyRZ(theta, q0)
			default:
				q1 := (q0 + 1 + (b/n)%(n-1)) % n
				c.ApplyXX(theta, q0, q1)
			}
		}

		m0, err := mapping.Initial(c, ions, mapping.GreedyPlacement)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("%d qubits on %+v, %+v", n, dev, opt)
		got, err := (LinQ{}).Insert(context.Background(), c, m0, dev, opt)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		want := refLinQInsert(c, m0, dev, opt)
		if got.Physical.Fingerprint() != want.Physical.Fingerprint() {
			t.Fatalf("%s: physical circuit differs from the reference", label)
		}
		if got.SwapCount != want.SwapCount || got.OpposingSwaps != want.OpposingSwaps {
			t.Fatalf("%s: swaps %d (opposing %d), reference %d (opposing %d)",
				label, got.SwapCount, got.OpposingSwaps, want.SwapCount, want.OpposingSwaps)
		}
		if !reflect.DeepEqual(got.FinalMapping.LogicalToPhysical(), want.FinalMapping.LogicalToPhysical()) {
			t.Fatalf("%s: final mapping differs from the reference", label)
		}
	})
}
