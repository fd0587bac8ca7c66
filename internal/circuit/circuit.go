// Package circuit defines the quantum-circuit intermediate representation
// used throughout the LinQ toolflow: gates, circuits, dependency structure,
// and depth/layering utilities.
//
// A Circuit is an ordered list of gates over NumQubits qubits. Program order
// is a valid topological order of the gate-dependency DAG (two gates depend
// on each other iff they share a qubit), so compiler passes may process gates
// front to back.
package circuit

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strings"
)

// Kind identifies a gate type.
type Kind int

// Supported gate kinds. The trapped-ion native set is {RX, RY, RZ, XX};
// everything else is a convenience kind that internal/decompose lowers.
const (
	I Kind = iota
	X
	Y
	Z
	H
	S
	Sdg
	T
	Tdg
	RX
	RY
	RZ
	CNOT
	CZ
	CP
	SWAP
	XX
	CCX
	Measure
	numKinds
)

var kindNames = [...]string{
	I: "i", X: "x", Y: "y", Z: "z", H: "h", S: "s", Sdg: "sdg", T: "t",
	Tdg: "tdg", RX: "rx", RY: "ry", RZ: "rz", CNOT: "cx", CZ: "cz",
	CP: "cp", SWAP: "swap", XX: "xx", CCX: "ccx", Measure: "measure",
}

// String returns the lowercase mnemonic for the kind (QASM-style).
func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return fmt.Sprintf("kind(%d)", int(k))
	}
	return kindNames[k]
}

// Arity returns the number of qubits a gate of this kind acts on.
func (k Kind) Arity() int {
	switch k {
	case CNOT, CZ, CP, SWAP, XX:
		return 2
	case CCX:
		return 3
	default:
		return 1
	}
}

// Parameterized reports whether gates of this kind carry a rotation angle.
func (k Kind) Parameterized() bool {
	switch k {
	case RX, RY, RZ, CP, XX:
		return true
	}
	return false
}

// Native reports whether the kind belongs to the trapped-ion native gate set
// {RX, RY, RZ, XX} produced by internal/decompose.
func (k Kind) Native() bool {
	switch k {
	case RX, RY, RZ, XX:
		return true
	}
	return false
}

// KindByName returns the kind with the given lowercase mnemonic (the
// Kind.String form, e.g. "cx", "rz").
func KindByName(name string) (Kind, error) {
	for k, n := range kindNames {
		if n == name {
			return Kind(k), nil
		}
	}
	return 0, fmt.Errorf("circuit: unknown gate kind %q", name)
}

// Gate is a single quantum operation on one, two, or three qubits.
// Qubits are logical indices before mapping and physical slot indices after.
type Gate struct {
	Kind   Kind
	Qubits []int
	// Theta is the rotation angle in radians for parameterized kinds
	// (RX, RY, RZ, CP, XX) and ignored otherwise.
	Theta float64
}

// NewGate constructs a gate, validating arity.
func NewGate(k Kind, theta float64, qubits ...int) (Gate, error) {
	g := Gate{Kind: k, Qubits: qubits, Theta: theta}
	if err := g.validate(); err != nil {
		return Gate{}, err
	}
	return g, nil
}

func (g Gate) validate() error {
	if got, want := len(g.Qubits), g.Kind.Arity(); got != want {
		return fmt.Errorf("circuit: gate %s wants %d qubits, got %d", g.Kind, want, got)
	}
	// Arity is at most 3, so a pairwise scan beats a set.
	for i, q := range g.Qubits {
		if q < 0 {
			return fmt.Errorf("circuit: gate %s has negative qubit %d", g.Kind, q)
		}
		for _, prev := range g.Qubits[:i] {
			if prev == q {
				return fmt.Errorf("circuit: gate %s repeats qubit %d", g.Kind, q)
			}
		}
	}
	if !g.Kind.Parameterized() && g.Theta != 0 {
		return fmt.Errorf("circuit: gate %s is not parameterized but has theta %v", g.Kind, g.Theta)
	}
	if math.IsNaN(g.Theta) || math.IsInf(g.Theta, 0) {
		return fmt.Errorf("circuit: gate %s has non-finite theta", g.Kind)
	}
	return nil
}

// IsTwoQubit reports whether the gate acts on exactly two qubits.
func (g Gate) IsTwoQubit() bool { return g.Kind.Arity() == 2 }

// Distance returns |q0 - q1| for a two-qubit gate. It panics for other
// arities; callers filter with IsTwoQubit first.
func (g Gate) Distance() int {
	if !g.IsTwoQubit() {
		panic(fmt.Sprintf("circuit: Distance on %d-qubit gate %s", g.Kind.Arity(), g.Kind))
	}
	d := g.Qubits[0] - g.Qubits[1]
	if d < 0 {
		d = -d
	}
	return d
}

// String renders the gate in a QASM-like single-line form.
func (g Gate) String() string {
	var b strings.Builder
	b.WriteString(g.Kind.String())
	if g.Kind.Parameterized() {
		fmt.Fprintf(&b, "(%g)", g.Theta)
	}
	for i, q := range g.Qubits {
		if i == 0 {
			b.WriteByte(' ')
		} else {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "q%d", q)
	}
	return b.String()
}

// Circuit is an ordered gate list over a fixed qubit register.
type Circuit struct {
	numQubits int
	gates     []Gate
	// arena is the current chunk backing the Qubits of gates added through
	// Add. Each gate gets a cap-limited window of it, so appending to one
	// gate's Qubits can never overwrite a neighbour's.
	arena []int
}

// arenaChunk is the size, in qubit operands, of the largest arena chunk:
// chunks double from arenaFirst up to it, so a small circuit wastes at
// most half of a small chunk and a large one at most one partly filled
// 8 KiB chunk.
const (
	arenaFirst = 16
	arenaChunk = 1024
)

// New returns an empty circuit over n qubits. n must be positive.
func New(n int) *Circuit {
	if n <= 0 {
		panic(fmt.Sprintf("circuit: non-positive qubit count %d", n))
	}
	return &Circuit{numQubits: n}
}

// Grow reserves room for n more gates, so that a caller that knows roughly
// how many gates it will add avoids growing the gate list step by step.
func (c *Circuit) Grow(n int) { c.gates = slices.Grow(c.gates, n) }

// NumQubits returns the register width.
func (c *Circuit) NumQubits() int { return c.numQubits }

// Len returns the number of gates.
func (c *Circuit) Len() int { return len(c.gates) }

// Gate returns the i-th gate.
func (c *Circuit) Gate(i int) Gate { return c.gates[i] }

// Gates returns the underlying gate slice. Callers must not mutate it.
func (c *Circuit) Gates() []Gate { return c.gates }

// Add appends a gate after validating it against the register width.
// Add copies g.Qubits into storage owned by the circuit, so the caller may
// reuse or modify its slice afterwards.
func (c *Circuit) Add(g Gate) error {
	if err := g.validate(); err != nil {
		return err
	}
	for _, q := range g.Qubits {
		if q >= c.numQubits {
			return fmt.Errorf("circuit: qubit %d out of range [0,%d)", q, c.numQubits)
		}
	}
	c.gates = append(c.gates, Gate{Kind: g.Kind, Qubits: c.store(g.Qubits), Theta: g.Theta})
	return nil
}

// store copies qs into the arena and returns the copy, cap-limited to its
// length. A full chunk is left to the gates that reference it and a new
// one is started.
func (c *Circuit) store(qs []int) []int {
	if len(c.arena)+len(qs) > cap(c.arena) {
		size := min(max(2*cap(c.arena), arenaFirst), arenaChunk)
		c.arena = make([]int, 0, max(size, len(qs)))
	}
	start := len(c.arena)
	c.arena = append(c.arena, qs...)
	return c.arena[start:len(c.arena):len(c.arena)]
}

// MustAdd appends a gate and panics on validation failure. It is intended
// for programmatic circuit construction where arguments are statically known.
// Like Add, it copies the qubits, so the variadic slice never outlives the
// call.
func (c *Circuit) MustAdd(k Kind, theta float64, qubits ...int) {
	if err := c.Add(Gate{Kind: k, Qubits: qubits, Theta: theta}); err != nil {
		panic(err)
	}
}

// Builder conveniences. All panic on invalid arguments (programming errors).

// ApplyX appends an X gate.
func (c *Circuit) ApplyX(q int) { c.MustAdd(X, 0, q) }

// ApplyY appends a Y gate.
func (c *Circuit) ApplyY(q int) { c.MustAdd(Y, 0, q) }

// ApplyZ appends a Z gate.
func (c *Circuit) ApplyZ(q int) { c.MustAdd(Z, 0, q) }

// ApplyH appends a Hadamard gate.
func (c *Circuit) ApplyH(q int) { c.MustAdd(H, 0, q) }

// ApplyS appends an S (phase) gate.
func (c *Circuit) ApplyS(q int) { c.MustAdd(S, 0, q) }

// ApplySdg appends an S-dagger gate.
func (c *Circuit) ApplySdg(q int) { c.MustAdd(Sdg, 0, q) }

// ApplyT appends a T gate.
func (c *Circuit) ApplyT(q int) { c.MustAdd(T, 0, q) }

// ApplyTdg appends a T-dagger gate.
func (c *Circuit) ApplyTdg(q int) { c.MustAdd(Tdg, 0, q) }

// ApplyRX appends an Rx(theta) rotation.
func (c *Circuit) ApplyRX(theta float64, q int) { c.MustAdd(RX, theta, q) }

// ApplyRY appends an Ry(theta) rotation.
func (c *Circuit) ApplyRY(theta float64, q int) { c.MustAdd(RY, theta, q) }

// ApplyRZ appends an Rz(theta) rotation.
func (c *Circuit) ApplyRZ(theta float64, q int) { c.MustAdd(RZ, theta, q) }

// ApplyCNOT appends a controlled-NOT with control ctl and target tgt.
func (c *Circuit) ApplyCNOT(ctl, tgt int) { c.MustAdd(CNOT, 0, ctl, tgt) }

// ApplyCZ appends a controlled-Z gate.
func (c *Circuit) ApplyCZ(a, b int) { c.MustAdd(CZ, 0, a, b) }

// ApplyCP appends a controlled-phase gate with angle theta.
func (c *Circuit) ApplyCP(theta float64, a, b int) { c.MustAdd(CP, theta, a, b) }

// ApplySWAP appends a SWAP gate.
func (c *Circuit) ApplySWAP(a, b int) { c.MustAdd(SWAP, 0, a, b) }

// ApplyXX appends a Mølmer-Sørensen XX(theta) interaction.
func (c *Circuit) ApplyXX(theta float64, a, b int) { c.MustAdd(XX, theta, a, b) }

// ApplyCCX appends a Toffoli gate with controls c0, c1 and target tgt.
func (c *Circuit) ApplyCCX(c0, c1, tgt int) { c.MustAdd(CCX, 0, c0, c1, tgt) }

// ApplyMeasure appends a computational-basis measurement marker.
func (c *Circuit) ApplyMeasure(q int) { c.MustAdd(Measure, 0, q) }

// Fingerprint returns a stable content hash of the circuit: a hex-encoded
// SHA-256 over the register width and every gate's kind, rotation-angle bits,
// and qubit operands, in program order. Two circuits share a fingerprint iff
// they are gate-for-gate identical, so it keys content-addressed caches of
// compiled artifacts. The fingerprint covers only circuit content — device,
// noise, and compiler configuration must be keyed separately (or, as the
// compile cache does, held fixed per cache).
func (c *Circuit) Fingerprint() string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(c.numQubits))
	for _, g := range c.gates {
		put(uint64(g.Kind))
		put(math.Float64bits(g.Theta))
		put(uint64(len(g.Qubits)))
		for _, q := range g.Qubits {
			put(uint64(q))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// gateJSON is the stable wire form of one gate: the lowercase kind
// mnemonic, the qubit operands, and the rotation angle for parameterized
// kinds. It is shared by the linqd submission API and the remote backend.
type gateJSON struct {
	Kind   string  `json:"kind"`
	Qubits []int   `json:"qubits"`
	Theta  float64 `json:"theta,omitempty"`
}

// circuitJSON is the stable wire form of a circuit.
type circuitJSON struct {
	Qubits int        `json:"qubits"`
	Gates  []gateJSON `json:"gates"`
}

// MarshalJSON renders the circuit in its stable wire form:
//
//	{"qubits": 3, "gates": [{"kind": "h", "qubits": [0]},
//	                        {"kind": "cx", "qubits": [0, 1]},
//	                        {"kind": "rz", "qubits": [2], "theta": 0.25}]}
//
// The encoding is lossless: UnmarshalJSON reconstructs a gate-for-gate
// identical circuit (equal Fingerprint), which is what lets the remote
// backend ship arbitrary circuits to a linqd daemon.
func (c *Circuit) MarshalJSON() ([]byte, error) {
	out := circuitJSON{Qubits: c.numQubits, Gates: make([]gateJSON, len(c.gates))}
	for i, g := range c.gates {
		out.Gates[i] = gateJSON{Kind: g.Kind.String(), Qubits: g.Qubits, Theta: g.Theta}
	}
	return json.Marshal(out)
}

// UnmarshalJSON parses the MarshalJSON wire form, validating every gate
// against the register exactly as Add does.
func (c *Circuit) UnmarshalJSON(data []byte) error {
	var in circuitJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return fmt.Errorf("circuit: %w", err)
	}
	if in.Qubits <= 0 {
		return fmt.Errorf("circuit: non-positive qubit count %d", in.Qubits)
	}
	parsed := Circuit{numQubits: in.Qubits, gates: make([]Gate, 0, len(in.Gates))}
	for i, gj := range in.Gates {
		kind, err := KindByName(gj.Kind)
		if err != nil {
			return fmt.Errorf("gate %d: %w", i, err)
		}
		g, err := NewGate(kind, gj.Theta, gj.Qubits...)
		if err != nil {
			return fmt.Errorf("gate %d: %w", i, err)
		}
		for _, q := range g.Qubits {
			if q >= parsed.numQubits {
				return fmt.Errorf("gate %d: qubit %d out of range [0,%d)", i, q, parsed.numQubits)
			}
		}
		parsed.gates = append(parsed.gates, g)
	}
	*c = parsed
	return nil
}

// Clone returns a deep copy of the circuit.
func (c *Circuit) Clone() *Circuit {
	out := &Circuit{numQubits: c.numQubits, gates: make([]Gate, len(c.gates))}
	copy(out.gates, c.gates)
	for i := range out.gates {
		qs := make([]int, len(out.gates[i].Qubits))
		copy(qs, out.gates[i].Qubits)
		out.gates[i].Qubits = qs
	}
	return out
}

// TwoQubitCount returns the number of two-qubit gates.
func (c *Circuit) TwoQubitCount() int {
	n := 0
	for _, g := range c.gates {
		if g.IsTwoQubit() {
			n++
		}
	}
	return n
}

// CountKind returns the number of gates of the given kind.
func (c *Circuit) CountKind(k Kind) int {
	n := 0
	for _, g := range c.gates {
		if g.Kind == k {
			n++
		}
	}
	return n
}

// GateCounts returns a histogram of gate kinds.
func (c *Circuit) GateCounts() map[Kind]int {
	m := make(map[Kind]int)
	for _, g := range c.gates {
		m[g.Kind]++
	}
	return m
}

// Depth returns the circuit depth under ASAP scheduling: the length of the
// longest chain of gates sharing qubits. Measure markers count like gates.
func (c *Circuit) Depth() int {
	depth := 0
	avail := make([]int, c.numQubits)
	for _, g := range c.gates {
		layer := 0
		for _, q := range g.Qubits {
			if avail[q] > layer {
				layer = avail[q]
			}
		}
		layer++
		for _, q := range g.Qubits {
			avail[q] = layer
		}
		if layer > depth {
			depth = layer
		}
	}
	return depth
}

// GateDepths returns, for each gate index, its ASAP layer (1-based).
// Used by the Eq. 1 swap-insertion score, where Δ(g) is the layer distance
// between a candidate future gate and the gate being resolved.
func (c *Circuit) GateDepths() []int {
	depths := make([]int, len(c.gates))
	avail := make([]int, c.numQubits)
	for i, g := range c.gates {
		layer := 0
		for _, q := range g.Qubits {
			if avail[q] > layer {
				layer = avail[q]
			}
		}
		layer++
		for _, q := range g.Qubits {
			avail[q] = layer
		}
		depths[i] = layer
	}
	return depths
}

// Layers partitions gate indices into ASAP layers. Gates within a layer act
// on disjoint qubits and may execute in parallel.
func (c *Circuit) Layers() [][]int {
	depths := c.GateDepths()
	n := c.Depth()
	layers := make([][]int, n)
	for i, d := range depths {
		layers[d-1] = append(layers[d-1], i)
	}
	return layers
}

// QubitGateLists returns, for each qubit, the ordered gate indices touching
// it. This is the per-qubit dependency structure used by schedulers.
func (c *Circuit) QubitGateLists() [][]int {
	lists := make([][]int, c.numQubits)
	for i, g := range c.gates {
		for _, q := range g.Qubits {
			lists[q] = append(lists[q], i)
		}
	}
	return lists
}

// MaxTwoQubitDistance returns the largest |q0-q1| over two-qubit gates,
// or 0 if there are none.
func (c *Circuit) MaxTwoQubitDistance() int {
	max := 0
	for _, g := range c.gates {
		if g.IsTwoQubit() {
			if d := g.Distance(); d > max {
				max = d
			}
		}
	}
	return max
}

// Validate re-checks every gate against the register. A circuit built only
// through Add/MustAdd is always valid; Validate guards hand-assembled values.
func (c *Circuit) Validate() error {
	if c.numQubits <= 0 {
		return fmt.Errorf("circuit: non-positive qubit count %d", c.numQubits)
	}
	for i, g := range c.gates {
		if err := g.validate(); err != nil {
			return fmt.Errorf("gate %d: %w", i, err)
		}
		for _, q := range g.Qubits {
			if q >= c.numQubits {
				return fmt.Errorf("gate %d: qubit %d out of range [0,%d)", i, q, c.numQubits)
			}
		}
	}
	return nil
}

// String renders the circuit as one gate per line, QASM-style.
func (c *Circuit) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "qreg q[%d]\n", c.numQubits)
	for _, g := range c.gates {
		b.WriteString(g.String())
		b.WriteByte('\n')
	}
	return b.String()
}
