package circuit

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
)

// The reflective wire codec the hand-written one replaced, kept as the
// oracle its tests compare against: encoding/json over two tagged
// structs, then the gate checks in the order UnmarshalJSON has always
// made them.

// gateJSON is the wire form of one gate.
type gateJSON struct {
	Kind   string  `json:"kind"`
	Qubits []int   `json:"qubits"`
	Theta  float64 `json:"theta,omitempty"`
}

// circuitJSON is the wire form of a circuit.
type circuitJSON struct {
	Qubits int        `json:"qubits"`
	Gates  []gateJSON `json:"gates"`
}

// oracleMarshal is the reflective MarshalJSON.
func oracleMarshal(c *Circuit) ([]byte, error) {
	out := circuitJSON{Qubits: c.numQubits, Gates: make([]gateJSON, len(c.gates))}
	for i, g := range c.gates {
		out.Gates[i] = gateJSON{Kind: g.Kind.String(), Qubits: g.Qubits, Theta: g.Theta}
	}
	return json.Marshal(out)
}

// oracleDecode is the reflective UnmarshalJSON. jsonErr reports that
// encoding/json refused the text; otherwise err is a validation error.
func oracleDecode(data []byte) (c *Circuit, jsonErr bool, err error) {
	var in circuitJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, true, fmt.Errorf("circuit: %w", err)
	}
	if in.Qubits <= 0 {
		return nil, false, fmt.Errorf("circuit: non-positive qubit count %d", in.Qubits)
	}
	parsed := Circuit{numQubits: in.Qubits, gates: make([]Gate, 0, len(in.Gates))}
	for i, gj := range in.Gates {
		kind, err := KindByName(gj.Kind)
		if err != nil {
			return nil, false, fmt.Errorf("gate %d: %w", i, err)
		}
		g, err := NewGate(kind, gj.Theta, gj.Qubits...)
		if err != nil {
			return nil, false, fmt.Errorf("gate %d: %w", i, err)
		}
		for _, q := range g.Qubits {
			if q >= parsed.numQubits {
				return nil, false, fmt.Errorf("gate %d: qubit %d out of range [0,%d)", i, q, parsed.numQubits)
			}
		}
		parsed.gates = append(parsed.gates, g)
	}
	return &parsed, false, nil
}

// checkAgainstOracle decodes data with DecodeJSON and with the oracle.
// They must agree on accepting it; on the text of a validation error; on
// the circuit (fingerprint); on its encoding, which must be the oracle's
// json.Marshal bytes; and on canonicity, which must mean that data is
// exactly that encoding. The encoding must decode as canonical to itself.
func checkAgainstOracle(t *testing.T, data []byte) {
	t.Helper()
	want, jsonErr, werr := oracleDecode(data)
	got, canonical, gerr := DecodeJSON(data)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("decode of %q: got error %v, oracle %v", data, gerr, werr)
	}
	if werr != nil {
		if !jsonErr && gerr.Error() != werr.Error() {
			t.Fatalf("decode of %q: got error %q, oracle %q", data, gerr, werr)
		}
		return
	}
	if got.Fingerprint() != want.Fingerprint() {
		t.Fatalf("decode of %q: circuit differs from the oracle's:\n%s\n%s", data, got, want)
	}
	enc := got.AppendJSON(nil)
	wantEnc, err := oracleMarshal(want)
	if err != nil {
		t.Fatalf("oracle marshal: %v", err)
	}
	if !bytes.Equal(enc, wantEnc) {
		t.Fatalf("AppendJSON differs from the oracle's json.Marshal:\n%s\n%s", enc, wantEnc)
	}
	if canonical != bytes.Equal(data, enc) {
		t.Fatalf("canonical = %v for %q, whose encoding is %q", canonical, data, enc)
	}
	back, canonical, err := DecodeJSON(enc)
	if err != nil || !canonical {
		t.Fatalf("encoding %q decodes with canonical %v, error %v", enc, canonical, err)
	}
	if again := back.AppendJSON(nil); !bytes.Equal(again, enc) {
		t.Fatalf("encoding is not stable:\n%s\n%s", enc, again)
	}
}
