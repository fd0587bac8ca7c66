package circuit

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzCircuitJSONRoundTrip feeds arbitrary bytes to the circuit JSON
// decoder. Invalid input must be rejected with an error (never a panic,
// never a half-initialized circuit); anything accepted must re-encode to a
// stable wire form: Marshal → Unmarshal → Marshal is byte-identical and
// fingerprint-preserving. linqd's remote backend relies on exactly this to
// ship circuits between processes.
func FuzzCircuitJSONRoundTrip(f *testing.F) {
	valid := New(3)
	valid.ApplyH(0)
	valid.ApplyCNOT(0, 1)
	valid.ApplyRZ(0.25, 2)
	seed, err := json.Marshal(valid)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{"qubits":1,"gates":[]}`))
	f.Add([]byte(`{"qubits":0,"gates":[]}`))
	f.Add([]byte(`{"qubits":2,"gates":[{"kind":"cx","qubits":[0,0]}]}`))
	f.Add([]byte(`{"qubits":2,"gates":[{"kind":"h","qubits":[9]}]}`))
	f.Add([]byte(`{"qubits":2,"gates":[{"kind":"nope","qubits":[0]}]}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"qubits":1,"gates":[{"kind":"rz","qubits":[0],"theta":-0}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var c Circuit
		if err := json.Unmarshal(data, &c); err != nil {
			return
		}
		if c.NumQubits() <= 0 {
			t.Fatalf("decoder accepted a circuit with %d qubits", c.NumQubits())
		}
		for i := 0; i < c.Len(); i++ {
			for _, q := range c.Gate(i).Qubits {
				if q < 0 || q >= c.NumQubits() {
					t.Fatalf("decoder accepted gate %d with qubit %d outside [0,%d)", i, q, c.NumQubits())
				}
			}
		}
		first, err := json.Marshal(&c)
		if err != nil {
			t.Fatalf("Marshal of an accepted circuit failed: %v", err)
		}
		var back Circuit
		if err := json.Unmarshal(first, &back); err != nil {
			t.Fatalf("Unmarshal of our own wire form failed: %v\n%s", err, first)
		}
		second, err := json.Marshal(&back)
		if err != nil {
			t.Fatalf("re-Marshal failed: %v", err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("wire form is not stable:\n%s\n%s", first, second)
		}
		if back.Fingerprint() != c.Fingerprint() {
			t.Fatalf("round-trip changed the circuit: %s != %s", back.Fingerprint(), c.Fingerprint())
		}
	})
}

// FuzzCircuitJSONMatchesOracle holds the hand-written wire codec to the
// reflective one it replaced (oracle_test.go): for any bytes, both accept
// or both refuse, with the same text for a gate that fails validation, the
// same circuit, the oracle's json.Marshal bytes as the encoding, and a
// canonical flag that is set exactly when the input is that encoding.
func FuzzCircuitJSONMatchesOracle(f *testing.F) {
	for _, s := range codecCases {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkAgainstOracle(t, data) })
}
