package linqhttp

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"testing"
)

// oracleRequest and oracleSubmit are the reflective envelope decode that
// decodeSubmit replaced: a json.Decoder into a tagged struct, one value
// per body.
type oracleRequest struct {
	Name     string          `json:"name,omitempty"`
	Backend  string          `json:"backend,omitempty"`
	QASM     string          `json:"qasm,omitempty"`
	Workload string          `json:"workload,omitempty"`
	Circuit  json.RawMessage `json:"circuit,omitempty"`
	Priority int             `json:"priority,omitempty"`
	TTLMs    int64           `json:"ttl_ms,omitempty"`
}

func oracleSubmit(body []byte) (submitRequest, error) {
	var req oracleRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	err := dec.Decode(&req)
	if err == nil {
		if _, tail := dec.Token(); !errors.Is(tail, io.EOF) {
			err = errors.New("unexpected data after the top-level value")
		}
	}
	if string(req.Circuit) == "null" {
		req.Circuit = nil
	}
	return submitRequest{
		Name: req.Name, Backend: req.Backend, QASM: req.QASM, Workload: req.Workload,
		Circuit: req.Circuit, Priority: req.Priority, TTLMs: int(req.TTLMs),
	}, err
}

// envelopeCases are submission bodies on the edges of what the envelope
// decode accepts.
var envelopeCases = []string{
	`{"backend":"TILT","circuit":{"qubits":2,"gates":[{"kind":"h","qubits":[0]}]}}`,
	// Key order, whitespace, unknown fields.
	" \n{ \"circuit\" : { \"qubits\" : 2 , \"gates\" : [ ] } ,\t\"backend\":\"QCCD\" , \"name\":\"x\"}\r\n ",
	`{"workload":"BV","extra":{"a":[1,2,{"b":null}],"c":"\u00e9"},"more":[true,false,-1.5e3]}`,
	// Escapes.
	`{"qasm":"qreg q[2];\nh q[0];\tcx q[0],q[1];\r\n","name":"\u0062\u0065ll \ud83d\ude00 \ud800 \"q\" \\ \/"}`,
	"{\"name\":\"caf\xc3\xa9 \xff\xfe\",\"workload\":\"BV\"}",
	// Repeated and letter-case keys.
	`{"workload":"BV","workload":"QFT","Workload":"ADDER"}`,
	`{"BACKEND":"IdealTI","Ttl_Ms":5,"PRIORITY":-2,"NaMe":"n"}`,
	"{\"bac\u212bend\":\"x\",\"ttl_m\u017f\":7}",
	`{"circuit":{"qubits":1,"gates":[]},"circuit":null}`,
	`{"circuit":null,"circuit":{"qubits":1,"gates":[]}}`,
	`{"priority":3,"priority":null,"ttl_ms":9,"ttl_ms":null}`,
	// Nulls.
	`null`,
	`{"name":null,"backend":null,"qasm":null,"workload":null,"circuit":null,"priority":null,"ttl_ms":null}`,
	// Circuit values of every JSON type: the envelope keeps their bytes.
	`{"circuit":5}`,
	`{"circuit":"x"}`,
	`{"circuit":[1, 2]}`,
	`{"circuit":true}`,
	`{"circuit":{ "qubits": 1 }  }`,
	// Type errors.
	`{"priority":"5"}`,
	`{"priority":1.5}`,
	`{"priority":1e3}`,
	`{"priority":true}`,
	`{"ttl_ms":"100"}`,
	`{"ttl_ms":[]}`,
	`{"ttl_ms":{}}`,
	`{"ttl_ms":-0}`,
	`{"ttl_ms":9223372036854775807}`,
	`{"ttl_ms":9223372036854775808}`,
	`{"ttl_ms":-9223372036854775808}`,
	`{"name":5}`,
	`{"backend":["TILT"]}`,
	`5`,
	`"x"`,
	`[]`,
	// Syntax errors and trailing data.
	``,
	` `,
	`{`,
	`{"workload":"BV"`,
	`{"workload":"BV",}`,
	`{"workload" "BV"}`,
	`{"workload":"BV"} trailing garbage`,
	`{"workload":"BV"}{"workload":"QFT"}`,
	`{"workload":"BV"} 5`,
	`{"workload":"B` + "\x01" + `V"}`,
	`{"workload":"\x"}`,
	`{"circuit":{"qubits":2,}}`,
	`{"circuit":[1,,2]}`,
	`{"circuit":tru}`,
	`{"circuit":01}`,
}

// checkEnvelope decodes body with decodeSubmit and the oracle: both must
// accept or both refuse it, and accepted bodies must yield equal requests.
func checkEnvelope(t *testing.T, body []byte) {
	t.Helper()
	want, werr := oracleSubmit(body)
	got, gerr := decodeSubmit(body)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("%q: error %v, oracle %v", body, gerr, werr)
	}
	if werr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("%q:\n got %+v\nwant %+v", body, got, want)
	}
}

func TestSubmitEnvelopeMatchesOracle(t *testing.T) {
	for _, body := range envelopeCases {
		checkEnvelope(t, []byte(body))
	}
}

// FuzzSubmitEnvelopeMatchesOracle holds decodeSubmit to the reflective
// envelope decode for any body.
func FuzzSubmitEnvelopeMatchesOracle(f *testing.F) {
	for _, body := range envelopeCases {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) { checkEnvelope(t, body) })
}
