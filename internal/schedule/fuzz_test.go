package schedule

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/mapping"
	"repro/internal/swapins"
)

// FuzzTapeMatchesReference decodes the input into a native circuit of at
// most 12 qubits and a device, routes it with LinQ swap insertion, and
// requires Tape and Sweep to validate and to match the full-rescan
// reference scheduler step for step.
//
// Input layout: byte 0 picks the width (2–12), byte 1 the extra ions past
// the width (0–3), byte 2 the head size, byte 3 MaxSwapLen (0 = default);
// every following pair of bytes, up to 96 pairs, is one gate: the kind
// (RX, RY, RZ or XX) and angle from the first, the operands from both.
func FuzzTapeMatchesReference(f *testing.F) {
	f.Add([]byte{10, 0, 4, 0, 3, 0x19, 7, 0x42, 11, 0x90, 3, 0x05})
	f.Add([]byte{12, 2, 3, 1, 3, 0xb0, 7, 0x1c, 3, 0x4b, 7, 0xa5, 3, 0xff, 0, 1})
	f.Add([]byte{4, 0, 4, 0, 3, 1, 3, 2, 3, 3})
	f.Add([]byte{2, 0, 2, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		n := 2 + int(data[0])%11
		ions := n + int(data[1])%4
		head := 2 + int(data[2])%(ions-1)
		msl := int(data[3]) % head
		dev := device.TILT{NumIons: ions, HeadSize: head}

		body := data[4:]
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
		r, err := (swapins.LinQ{}).Insert(context.Background(), c, m0, dev, swapins.Options{MaxSwapLen: msl})
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstReference(t, fmt.Sprintf("%d qubits on %+v, maxswaplen %d", n, dev, msl), r.Physical, dev)
	})
}
