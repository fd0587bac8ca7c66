package circuit

import (
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestKindArity(t *testing.T) {
	cases := []struct {
		k    Kind
		want int
	}{
		{X, 1}, {H, 1}, {RZ, 1}, {CNOT, 2}, {CZ, 2}, {CP, 2}, {SWAP, 2},
		{XX, 2}, {CCX, 3}, {Measure, 1},
	}
	for _, c := range cases {
		if got := c.k.Arity(); got != c.want {
			t.Errorf("%v.Arity() = %d, want %d", c.k, got, c.want)
		}
	}
}

func TestKindString(t *testing.T) {
	if CNOT.String() != "cx" {
		t.Errorf("CNOT.String() = %q, want cx", CNOT.String())
	}
	if Kind(999).String() != "kind(999)" {
		t.Errorf("unknown kind string = %q", Kind(999).String())
	}
}

func TestKindNative(t *testing.T) {
	for _, k := range []Kind{RX, RY, RZ, XX} {
		if !k.Native() {
			t.Errorf("%v should be native", k)
		}
	}
	for _, k := range []Kind{X, H, CNOT, CZ, SWAP, CCX} {
		if k.Native() {
			t.Errorf("%v should not be native", k)
		}
	}
}

// TestNewGateValidation pins every gate-validation error, through NewGate
// and through Add, including a repeated qubit in each operand pair of a
// Toffoli.
func TestNewGateValidation(t *testing.T) {
	cases := []struct {
		k      Kind
		theta  float64
		qubits []int
		want   string
	}{
		{CNOT, 0, []int{1}, "circuit: gate cx wants 2 qubits, got 1"},
		{X, 0, []int{0, 1}, "circuit: gate x wants 1 qubits, got 2"},
		{CCX, 0, nil, "circuit: gate ccx wants 3 qubits, got 0"},
		{X, 0, []int{-1}, "circuit: gate x has negative qubit -1"},
		{CNOT, 0, []int{0, -2}, "circuit: gate cx has negative qubit -2"},
		{CNOT, 0, []int{2, 2}, "circuit: gate cx repeats qubit 2"},
		{CCX, 0, []int{4, 4, 5}, "circuit: gate ccx repeats qubit 4"},
		{CCX, 0, []int{4, 5, 4}, "circuit: gate ccx repeats qubit 4"},
		{CCX, 0, []int{5, 4, 4}, "circuit: gate ccx repeats qubit 4"},
		{CCX, 0, []int{3, 3, 3}, "circuit: gate ccx repeats qubit 3"},
		{CCX, 0, []int{3, 3, -1}, "circuit: gate ccx repeats qubit 3"},
		{X, 1.0, []int{3}, "circuit: gate x is not parameterized but has theta 1"},
		{CNOT, 0.5, []int{0, 1}, "circuit: gate cx is not parameterized but has theta 0.5"},
		{RX, math.NaN(), []int{0}, "circuit: gate rx has non-finite theta"},
		{RX, math.Inf(1), []int{0}, "circuit: gate rx has non-finite theta"},
		{XX, math.Inf(-1), []int{0, 1}, "circuit: gate xx has non-finite theta"},
	}
	for _, tc := range cases {
		if _, err := NewGate(tc.k, tc.theta, tc.qubits...); err == nil || err.Error() != tc.want {
			t.Errorf("NewGate(%v, %v, %v) = %v, want %q", tc.k, tc.theta, tc.qubits, err, tc.want)
		}
		c := New(8)
		if err := c.Add(Gate{Kind: tc.k, Qubits: tc.qubits, Theta: tc.theta}); err == nil || err.Error() != tc.want {
			t.Errorf("Add(%v, %v, %v) = %v, want %q", tc.k, tc.theta, tc.qubits, err, tc.want)
		}
		if c.Len() != 0 {
			t.Errorf("Add(%v, %v, %v) kept a rejected gate", tc.k, tc.theta, tc.qubits)
		}
	}
	if g, err := NewGate(XX, math.Pi/4, 0, 5); err != nil || g.Distance() != 5 {
		t.Errorf("valid XX gate: %v, distance %d", err, g.Distance())
	}
	if _, err := NewGate(CCX, 0, 0, 1, 2); err != nil {
		t.Errorf("valid CCX gate: %v", err)
	}
}

// TestAddCopiesQubits checks that Add and MustAdd take their own copy of
// the operands: the caller may reuse its slice, and growing one gate's
// Qubits never reaches into the next gate's.
func TestAddCopiesQubits(t *testing.T) {
	c := New(4)
	qs := []int{0, 1}
	if err := c.Add(Gate{Kind: CNOT, Qubits: qs}); err != nil {
		t.Fatal(err)
	}
	qs[0], qs[1] = 2, 3
	c.MustAdd(CZ, 0, qs...)
	qs[0], qs[1] = 3, 0
	want := "qreg q[4]\ncx q0, q1\ncz q2, q3\n"
	if got := c.String(); got != want {
		t.Fatalf("circuit changed with the caller's slice:\n%s", got)
	}
	grown := append(c.Gate(0).Qubits, 3)
	grown[0] = 3
	if got := c.String(); got != want {
		t.Fatalf("appending to a gate's Qubits changed the circuit:\n%s", got)
	}
}

// TestGrowReservesGates checks that after Grow(n) the next n gates never
// move the gate list.
func TestGrowReservesGates(t *testing.T) {
	c := New(2)
	c.ApplyH(0)
	c.Grow(100)
	first := &c.gates[0]
	for i := 0; i < 100; i++ {
		c.ApplyCNOT(i%2, 1-i%2)
	}
	if &c.gates[0] != first {
		t.Error("gate list reallocated within the reserved room")
	}
}

// TestApplyAllocationsAmortized checks that building a circuit costs far
// less than one allocation per gate: the variadic operands stay on the
// stack and the qubit arena is allocated in chunks.
func TestApplyAllocationsAmortized(t *testing.T) {
	const gates = 4096
	allocs := testing.AllocsPerRun(10, func() {
		c := New(64)
		for i := 0; i < gates; i++ {
			c.ApplyCNOT(i%63, i%63+1)
		}
	})
	if perGate := allocs / gates; perGate > 0.05 {
		t.Errorf("%.0f allocations for %d CNOTs (%.3f per gate), want well under one per gate", allocs, gates, perGate)
	}
}

func TestGateDistancePanicsOnSingleQubit(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Distance on 1-qubit gate should panic")
		}
	}()
	g, _ := NewGate(X, 0, 0)
	g.Distance()
}

func TestCircuitAddOutOfRange(t *testing.T) {
	c := New(3)
	g, _ := NewGate(X, 0, 5)
	if err := c.Add(g); err == nil {
		t.Error("adding gate on qubit 5 to 3-qubit circuit should fail")
	}
}

func TestNewPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0) should panic")
		}
	}()
	New(0)
}

func TestDepthAndLayers(t *testing.T) {
	c := New(4)
	c.ApplyH(0)       // layer 1
	c.ApplyCNOT(0, 1) // layer 2
	c.ApplyCNOT(2, 3) // layer 1
	c.ApplyCNOT(1, 2) // layer 3
	c.ApplyX(0)       // layer 3
	if got := c.Depth(); got != 3 {
		t.Fatalf("Depth = %d, want 3", got)
	}
	layers := c.Layers()
	if len(layers) != 3 {
		t.Fatalf("len(Layers) = %d, want 3", len(layers))
	}
	if len(layers[0]) != 2 || len(layers[1]) != 1 || len(layers[2]) != 2 {
		t.Errorf("layer sizes = %d/%d/%d, want 2/1/2",
			len(layers[0]), len(layers[1]), len(layers[2]))
	}
	depths := c.GateDepths()
	want := []int{1, 2, 1, 3, 3}
	for i, w := range want {
		if depths[i] != w {
			t.Errorf("GateDepths[%d] = %d, want %d", i, depths[i], w)
		}
	}
}

func TestCountsAndDistance(t *testing.T) {
	c := New(8)
	c.ApplyH(0)
	c.ApplyCNOT(0, 7)
	c.ApplyCNOT(1, 2)
	c.ApplySWAP(3, 4)
	c.ApplyRZ(0.5, 5)
	if got := c.TwoQubitCount(); got != 3 {
		t.Errorf("TwoQubitCount = %d, want 3", got)
	}
	if got := c.CountKind(CNOT); got != 2 {
		t.Errorf("CountKind(CNOT) = %d, want 2", got)
	}
	if got := c.MaxTwoQubitDistance(); got != 7 {
		t.Errorf("MaxTwoQubitDistance = %d, want 7", got)
	}
	counts := c.GateCounts()
	if counts[H] != 1 || counts[CNOT] != 2 || counts[SWAP] != 1 || counts[RZ] != 1 {
		t.Errorf("GateCounts = %v", counts)
	}
}

func TestMaxTwoQubitDistanceEmpty(t *testing.T) {
	c := New(4)
	c.ApplyH(0)
	if got := c.MaxTwoQubitDistance(); got != 0 {
		t.Errorf("MaxTwoQubitDistance = %d, want 0", got)
	}
}

func TestCloneIsDeep(t *testing.T) {
	c := New(3)
	c.ApplyCNOT(0, 1)
	d := c.Clone()
	d.Gates()[0].Qubits[0] = 2
	if c.Gate(0).Qubits[0] != 0 {
		t.Error("Clone shares qubit slices with original")
	}
	d.ApplyX(2)
	if c.Len() != 1 {
		t.Error("Clone shares gate slice growth with original")
	}
}

func TestQubitGateLists(t *testing.T) {
	c := New(3)
	c.ApplyH(0)
	c.ApplyCNOT(0, 1)
	c.ApplyCNOT(1, 2)
	lists := c.QubitGateLists()
	if len(lists[0]) != 2 || len(lists[1]) != 2 || len(lists[2]) != 1 {
		t.Errorf("QubitGateLists sizes = %d/%d/%d", len(lists[0]), len(lists[1]), len(lists[2]))
	}
	if lists[1][0] != 1 || lists[1][1] != 2 {
		t.Errorf("qubit 1 list = %v, want [1 2]", lists[1])
	}
}

func TestValidate(t *testing.T) {
	c := New(3)
	c.ApplyCNOT(0, 2)
	if err := c.Validate(); err != nil {
		t.Errorf("valid circuit failed Validate: %v", err)
	}
	// Hand-corrupt a gate.
	c.Gates()[0].Qubits[1] = 9
	if err := c.Validate(); err == nil {
		t.Error("corrupted circuit passed Validate")
	}
}

func TestString(t *testing.T) {
	c := New(2)
	c.ApplyH(0)
	c.ApplyCP(math.Pi/2, 0, 1)
	s := c.String()
	if !strings.Contains(s, "qreg q[2]") || !strings.Contains(s, "h q0") ||
		!strings.Contains(s, "cp(") {
		t.Errorf("String output unexpected:\n%s", s)
	}
}

// randomCircuit builds a pseudo-random valid circuit for property tests.
func randomCircuit(rng *rand.Rand, n, gates int) *Circuit {
	c := New(n)
	for i := 0; i < gates; i++ {
		switch rng.Intn(4) {
		case 0:
			c.ApplyH(rng.Intn(n))
		case 1:
			c.ApplyRZ(rng.Float64()*2*math.Pi, rng.Intn(n))
		case 2:
			a := rng.Intn(n)
			b := rng.Intn(n)
			for b == a {
				b = rng.Intn(n)
			}
			c.ApplyCNOT(a, b)
		case 3:
			a := rng.Intn(n)
			b := rng.Intn(n)
			for b == a {
				b = rng.Intn(n)
			}
			c.ApplyXX(math.Pi/4, a, b)
		}
	}
	return c
}

func TestPropertyDepthBounds(t *testing.T) {
	f := func(seed int64, nRaw, gRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(nRaw)%8
		gates := int(gRaw) % 50
		c := randomCircuit(rng, n, gates)
		d := c.Depth()
		if gates == 0 {
			return d == 0
		}
		// Depth is at least ceil(len/num-parallel-slots) and at most len.
		return d >= 1 && d <= c.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropertyLayersPartitionGates(t *testing.T) {
	f := func(seed int64, nRaw, gRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(nRaw)%8
		c := randomCircuit(rng, n, int(gRaw)%60)
		layers := c.Layers()
		seen := make(map[int]bool)
		for _, layer := range layers {
			used := make(map[int]bool)
			for _, gi := range layer {
				if seen[gi] {
					return false // duplicate gate across layers
				}
				seen[gi] = true
				for _, q := range c.Gate(gi).Qubits {
					if used[q] {
						return false // qubit conflict within a layer
					}
					used[q] = true
				}
			}
		}
		return len(seen) == c.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropertyCloneEqual(t *testing.T) {
	f := func(seed int64, gRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomCircuit(rng, 5, int(gRaw)%40)
		d := c.Clone()
		if c.Len() != d.Len() || c.NumQubits() != d.NumQubits() {
			return false
		}
		for i := 0; i < c.Len(); i++ {
			a, b := c.Gate(i), d.Gate(i)
			if a.Kind != b.Kind || a.Theta != b.Theta || len(a.Qubits) != len(b.Qubits) {
				return false
			}
			for j := range a.Qubits {
				if a.Qubits[j] != b.Qubits[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestFingerprintStableAndContentSensitive(t *testing.T) {
	build := func() *Circuit {
		c := New(4)
		c.ApplyH(0)
		c.ApplyRZ(0.25, 1)
		c.ApplyCNOT(0, 2)
		return c
	}
	a, b := build(), build()
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("identical circuits have different fingerprints")
	}
	if got := a.Fingerprint(); got != a.Fingerprint() {
		t.Error("fingerprint not deterministic across calls")
	}

	// Any content change must change the hash.
	variants := []*Circuit{New(5), build(), build(), build()}
	variants[0].ApplyH(0)
	variants[0].ApplyRZ(0.25, 1)
	variants[0].ApplyCNOT(0, 2)                                           // width differs
	variants[1].ApplyX(3)                                                 // extra gate
	variants[2].Gates()[1] = Gate{Kind: RZ, Theta: 0.5, Qubits: []int{1}} // angle differs
	variants[3].Gates()[2] = Gate{Kind: CNOT, Qubits: []int{2, 0}}        // operand order differs
	seen := map[string]bool{a.Fingerprint(): true}
	for i, v := range variants {
		fp := v.Fingerprint()
		if seen[fp] {
			t.Errorf("variant %d collides with a prior fingerprint", i)
		}
		seen[fp] = true
	}
}

func TestFingerprintEmptyCircuitsDifferByWidth(t *testing.T) {
	if New(3).Fingerprint() == New(4).Fingerprint() {
		t.Error("empty circuits of different widths share a fingerprint")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	c := New(5)
	c.ApplyH(0)
	c.ApplyCNOT(0, 1)
	c.ApplyRZ(0.25, 2)
	c.ApplyRZ(0, 3) // zero-angle parameterized gate must survive omitempty
	c.ApplyCP(-math.Pi/3, 1, 4)
	c.ApplyXX(1.5, 2, 3)
	c.ApplyCCX(0, 1, 2)
	c.ApplyMeasure(4)

	data, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	got := &Circuit{}
	if err := json.Unmarshal(data, got); err != nil {
		t.Fatalf("unmarshal %s: %v", data, err)
	}
	if got.Fingerprint() != c.Fingerprint() {
		t.Errorf("round trip changed the circuit:\n in %s\nout %s", c, got)
	}
}

func TestJSONRejectsInvalid(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"zero qubits", `{"qubits":0,"gates":[]}`},
		{"unknown kind", `{"qubits":2,"gates":[{"kind":"nope","qubits":[0]}]}`},
		{"bad arity", `{"qubits":2,"gates":[{"kind":"cx","qubits":[0]}]}`},
		{"out of range", `{"qubits":2,"gates":[{"kind":"h","qubits":[2]}]}`},
		{"theta on unparameterized", `{"qubits":2,"gates":[{"kind":"h","qubits":[0],"theta":1}]}`},
		{"not json", `{"qubits":`},
	}
	for _, tc := range cases {
		var c Circuit
		if err := json.Unmarshal([]byte(tc.src), &c); err == nil {
			t.Errorf("%s: unmarshal accepted %s", tc.name, tc.src)
		}
	}
}

func TestKindByNameCoversEveryKind(t *testing.T) {
	for k := I; k < numKinds; k++ {
		got, err := KindByName(k.String())
		if err != nil {
			t.Fatalf("KindByName(%q): %v", k.String(), err)
		}
		if got != k {
			t.Errorf("KindByName(%q) = %v, want %v", k.String(), got, k)
		}
	}
	if _, err := KindByName("bogus"); err == nil {
		t.Error("KindByName accepted an unknown mnemonic")
	}
}
