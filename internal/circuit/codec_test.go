package circuit

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// codecCases are wire texts on the edges of what encoding/json accepts
// and of the canonical form; TestCodecMatchesOracle and the fuzz target's
// seed corpus run them.
var codecCases = []string{
	// Canonical forms.
	`{"qubits":1,"gates":[]}`,
	`{"qubits":3,"gates":[{"kind":"h","qubits":[0]},{"kind":"cx","qubits":[0,1]},{"kind":"rz","qubits":[2],"theta":0.25}]}`,
	`{"qubits":3,"gates":[{"kind":"ccx","qubits":[0,1,2]},{"kind":"measure","qubits":[2]}]}`,
	// Whitespace, key order, unknown keys.
	" {\"gates\" : [ {\"qubits\":[0], \"kind\":\"h\"} ] ,\n\t\"qubits\":2 }\r\n",
	`{"qubits":2,"gates":[{"kind":"h","qubits":[0],"note":{"a":[1,true,null,"x"]}}],"meta":[]}`,
	`{"qubits":2,"gates":[{"kind":"rz","theta":0.5,"qubits":[1]}]}`,
	// Letter case and Unicode folding of keys, escapes in keys and kinds.
	`{"Qubits":2,"GATES":[{"Kind":"x","QuBiTs":[1]}]}`,
	"{\"qubit\u017f\":2,\"gates\":[{\"\u212aind\":\"x\",\"qubits\":[1]}]}",
	`{"qubit\u017f":2,"gates":[{"kind":"x","qubits":[1]}]}`,
	`{"qubits_":2,"gates":[{"kind":"x","qubits":[1]}]}`,
	`{"qubits":2,"gates":[{"kind":"\u0063x","qubits":[0,1]}]}`,
	`{"qubits":2,"gates":[{"kind":"c\/x","qubits":[0,1]}]}`,
	`{"qubits":2,"gates":[{"kind":"\ud800x","qubits":[0]}]}`,
	`{"qubits":2,"gates":[{"kind":"` + "\xff" + `","qubits":[0]}]}`,
	// Nulls.
	`null`,
	`{"qubits":null}`,
	`{"qubits":2,"gates":null}`,
	`{"qubits":2,"gates":[null]}`,
	`{"qubits":2,"gates":[{"kind":null,"qubits":[0]}]}`,
	`{"qubits":2,"gates":[{"kind":"h","qubits":null}]}`,
	`{"qubits":2,"gates":[{"kind":"h","qubits":[null]}]}`,
	`{"qubits":2,"gates":[{"kind":"rz","qubits":[0],"theta":null}]}`,
	// Repeated keys, which decode into what the earlier ones left.
	`{"qubits":5,"qubits":2,"gates":[]}`,
	`{"qubits":2,"gates":[{"kind":"h","qubits":[1]}],"gates":[{"qubits":[0]}]}`,
	`{"qubits":3,"gates":[{"kind":"rz","qubits":[0],"theta":1},{"kind":"h","qubits":[2]}],"gates":[{"kind":"x"}],"gates":[{},{}]}`,
	`{"qubits":3,"gates":[{"kind":"cx","qubits":[0,1,2],"qubits":[2],"qubits":[1,null]}]}`,
	`{"qubits":3,"gates":[{"kind":"cx","qubits":[0,1]}],"gates":[],"gates":[{"qubits":[1,2]}]}`,
	`{"qubits":3,"gates":[{"kind":"cx","qubits":[0,1]}],"gates":null,"gates":[{"qubits":[1,2]}]}`,
	`{"qubits":3,"gates":[{"kind":"h","qubits":[2],"qubits":[],"qubits":[null]}]}`,
	// Numbers.
	`{"qubits":1.0,"gates":[]}`,
	`{"qubits":1e0,"gates":[]}`,
	`{"qubits":-0,"gates":[]}`,
	`{"qubits":2,"gates":[{"kind":"h","qubits":[-0]}]}`,
	`{"qubits":99999999999999999999,"gates":[]}`,
	`{"qubits":2,"gates":[{"kind":"h","qubits":[1.5]}]}`,
	`{"qubits":1,"gates":[{"kind":"rz","qubits":[0],"theta":-0}]}`,
	`{"qubits":1,"gates":[{"kind":"rz","qubits":[0],"theta":0}]}`,
	`{"qubits":1,"gates":[{"kind":"rz","qubits":[0],"theta":5e-324}]}`,
	`{"qubits":1,"gates":[{"kind":"rz","qubits":[0],"theta":1e-400}]}`,
	`{"qubits":1,"gates":[{"kind":"rz","qubits":[0],"theta":1e400}]}`,
	`{"qubits":1,"gates":[{"kind":"rz","qubits":[0],"theta":0.000001}]}`,
	`{"qubits":1,"gates":[{"kind":"rz","qubits":[0],"theta":1e-6}]}`,
	`{"qubits":1,"gates":[{"kind":"rz","qubits":[0],"theta":9.99e-7}]}`,
	`{"qubits":1,"gates":[{"kind":"rz","qubits":[0],"theta":1e-7}]}`,
	`{"qubits":1,"gates":[{"kind":"rz","qubits":[0],"theta":1e+21}]}`,
	`{"qubits":1,"gates":[{"kind":"rz","qubits":[0],"theta":1e21}]}`,
	`{"qubits":1,"gates":[{"kind":"rz","qubits":[0],"theta":999999999999999900000}]}`,
	`{"qubits":1,"gates":[{"kind":"rz","qubits":[0],"theta":-1.5E300}]}`,
	`{"qubits":1,"gates":[{"kind":"rz","qubits":[0],"theta":0.10}]}`,
	// Gate validation, in UnmarshalJSON's order.
	`{"qubits":0,"gates":[{"kind":"nope","qubits":[0]}]}`,
	`{"qubits":2,"gates":[{"kind":"nope","qubits":[0]}]}`,
	`{"qubits":2,"gates":[{"qubits":[0]}]}`,
	`{"qubits":2,"gates":[{"kind":"cx","qubits":[0]}]}`,
	`{"qubits":2,"gates":[{"kind":"cx","qubits":[0,0]}]}`,
	`{"qubits":2,"gates":[{"kind":"h","qubits":[-1]}]}`,
	`{"qubits":2,"gates":[{"kind":"h","qubits":[2]}]}`,
	`{"qubits":2,"gates":[{"kind":"h","qubits":[0],"theta":1}]}`,
	`{"qubits":2,"gates":[{"kind":"h","qubits":[0]},{"kind":"h","qubits":[7]},{"kind":"nope"}]}`,
	// Syntax and type errors.
	``,
	`{`,
	`{"qubits":`,
	`{"qubits":2,"gates":[]} x`,
	`{"qubits":2,"gates":[]}{}`,
	`{"qubits":2,"gates":[],}`,
	`{"qubits":2 "gates":[]}`,
	`{"qubits":02,"gates":[]}`,
	`{"qubits":2,"gates":[{"kind":"h","qubits":[0]},]}`,
	"{\"qubits\":2,\"gates\":[{\"kind\":\"h\x01\",\"qubits\":[0]}]}",
	`{"qubits":2,"gates":[{"kind":"\q","qubits":[0]}]}`,
	`{"qubits":2,"gates":[{"kind":"\u12","qubits":[0]}]}`,
	`{"qubits":"2","gates":[]}`,
	`{"qubits":2,"gates":{}}`,
	`{"qubits":2,"gates":[5]}`,
	`{"qubits":2,"gates":[{"kind":7,"qubits":[0]}]}`,
	`{"qubits":2,"gates":[{"kind":"rz","qubits":[0],"theta":"1"}]}`,
	`{"qubits":2,"x":tru}`,
	`{"qubits":2,"x":-}`,
	`{"qubits":2,"x":1.}`,
	`{"qubits":2,"x":1e}`,
	`[]`,
	`5`,
	"\xef\xbb\xbf{}",
}

func TestCodecMatchesOracle(t *testing.T) {
	for _, s := range codecCases {
		checkAgainstOracle(t, []byte(s))
	}
}

// TestCodecNestingLimit: encoding/json refuses more than 10000 open
// containers, and so must the scanner, even inside a skipped value.
func TestCodecNestingLimit(t *testing.T) {
	for _, depth := range []int{9998, 9999, 10000} {
		data := []byte(`{"qubits":1,"gates":[],"x":` + strings.Repeat("[", depth) + strings.Repeat("]", depth) + `}`)
		checkAgainstOracle(t, data)
	}
}

// TestAppendJSONFloats pins the float formatting at encoding/json's
// switches between 'f' and 'e', and the omitted zero angles.
func TestAppendJSONFloats(t *testing.T) {
	for _, theta := range []float64{
		0.25, -math.Pi / 3, 1e-6, math.Nextafter(1e-6, 0), 1e-7, 1.5e-10,
		1e21, math.Nextafter(1e21, 0), 1e300, -1e22, 5e-324, math.SmallestNonzeroFloat64 * 3,
		math.MaxFloat64, 123456789.125, math.Copysign(0, -1), 0,
	} {
		c := New(1)
		c.ApplyRZ(theta, 0)
		got := c.AppendJSON(nil)
		want, err := oracleMarshal(c)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("theta %v: AppendJSON %s, json.Marshal %s", theta, got, want)
		}
		checkAgainstOracle(t, got)
	}
}

// TestMarshalJSONIsAppendJSON: json.Marshal of a circuit writes the
// canonical bytes, which decode as canonical.
func TestMarshalJSONIsAppendJSON(t *testing.T) {
	c := New(5)
	c.ApplyH(0)
	c.ApplyCP(-math.Pi/3, 1, 4)
	c.ApplyXX(1.5, 2, 3)
	c.ApplyCCX(0, 1, 2)
	b, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	if want := c.AppendJSON(nil); !bytes.Equal(b, want) {
		t.Fatalf("json.Marshal %s, AppendJSON %s", b, want)
	}
	back, canonical, err := DecodeJSON(b)
	if err != nil || !canonical || back.Fingerprint() != c.Fingerprint() {
		t.Fatalf("DecodeJSON: canonical %v, error %v", canonical, err)
	}
}

// TestDecodeJSONOwnsOperands: a decoded circuit's gates hold cap-limited
// windows of its own storage, so Add after a decode cannot overwrite
// them, and decoding never aliases the input.
func TestDecodeJSONOwnsOperands(t *testing.T) {
	data := []byte(`{"qubits":3,"gates":[{"kind":"cx","qubits":[0,1]},{"kind":"h","qubits":[2]}]}`)
	c, _, err := DecodeJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < c.Len(); i++ {
		if qs := c.Gate(i).Qubits; cap(qs) != len(qs) {
			t.Errorf("gate %d: operands have cap %d > len %d", i, cap(qs), len(qs))
		}
	}
	c.ApplyCCX(0, 1, 2)
	clear(data)
	if c.Len() != 3 || c.Gate(0).Qubits[1] != 1 || c.Gate(1).Qubits[0] != 2 {
		t.Errorf("operands changed: %s", c)
	}
}
