package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	tilt "repro"
	"repro/internal/workloads"
)

// workload is one traffic mix: the linqd configuration it runs against, the
// shape of the load, and the generator of its inputs.
//
// Every input property that drives cost (family, width, backend) is
// stratified by pool index, and the seed draws only the details inside each
// stratum (angles, secrets, permutations, RNG seeds). Two seeds therefore
// offer the same mix of work with different circuits, which keeps the
// run-to-run spread of a timed run small.
type workload struct {
	name string
	// head is linqd's -head. Chains are as long as each circuit is wide, so
	// a head wider than the narrowest circuit fails those jobs.
	head int
	// shots is linqd's -shots (0 = analytic model only).
	shots int
	// journal runs linqd with a fsynced write-ahead journal.
	journal bool
	// window is the number of jobs outstanding in the closed loop.
	window int
	// openShare is the share of a -trace 1 run's untraced phase run as an
	// open loop at openRate jobs/s after the closed loop, for the
	// generator's send lag.
	openShare float64
	openRate  float64
	// preRun is the number of jobs an untimed daemon journals before
	// set-up, so that set-up includes journal replay and checkpoint.
	preRun int
	// poolSize is the number of distinct (circuit, backend) inputs.
	poolSize int
	// entry builds pool input i.
	entry func(rng *rand.Rand, i int) entry
	// stream returns the request sequence as pool indices.
	stream func(seed int64, poolSize int) func() int
}

// entry is one distinct input: a circuit and the backend pool it targets.
type entry struct {
	backend string
	circ    *tilt.Circuit
}

// inputs are a workload's generated pool with each submit body
// JSON-encoded ahead of timing.
type inputs struct {
	entries  []entry
	bodies   [][]byte
	minWidth int
}

var allWorkloads = []*workload{
	{
		// Tiny distinct circuits: per-job compute is negligible, so HTTP
		// decode, the manager lock and the three journal fsyncs per job
		// dominate. The pool is far larger than the compile cache and is
		// cycled in order, so the cache never hits and nothing dedups.
		// One job at a time: with more, the latency percentiles swing with
		// how the jobs happen to overlap (spreads 0.10–0.35 against 0.05),
		// and the generator's serial round trips keep linqd about as busy
		// at one as at 32.
		name: "intake-small", head: 16, journal: true,
		window: 1, openShare: 0.4, openRate: 200,
		preRun: 2000, poolSize: 4096,
		entry:  intakeEntry,
		stream: cyclic(1),
	},
	{
		// Scaled Table II families on all three backends: the compiler
		// passes, the simulators and the QCCD capacity sweep behind the
		// paper's tables. A quarter of the requests revisit a recent one,
		// which the TILT compile cache can serve.
		name: "paper-sweep", head: 16,
		window: 4, poolSize: 1024,
		entry:  sweepEntry,
		stream: revisiting(0.25, 32),
	},
	{
		// Small circuits with the Monte-Carlo cross-check on: the mc and
		// qsim kernels take nearly all the CPU. 256 shots make one mc
		// shard, which runs on one core, so one job at a time leaves the
		// other core to the generator and each latency is the job's own
		// service time rather than that of whatever it overlapped.
		name: "mc-crosscheck", head: 8, shots: 256,
		window: 1, poolSize: 512,
		entry:  mcEntry,
		stream: cyclic(1),
	},
	{
		// Bursts of 16 identical wide circuits, each result read back:
		// compiles are shared through dedup and the compile cache, and the
		// wire codec and journal marshalling of ~100 KB bodies take a large
		// share of the CPU.
		name: "herd-readback", head: 16, journal: true,
		window: 16, poolSize: 200,
		entry:  herdEntry,
		stream: cyclic(16),
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// daemonFlags returns the linqd flags that configure the workload's
// backends; the caller adds the address, journal and tracing flags.
func (w *workload) daemonFlags() []string {
	args := []string{"-head", fmt.Sprint(w.head)}
	if w.shots > 0 {
		args = append(args, "-shots", fmt.Sprint(w.shots))
	}
	return args
}

// generate builds the workload's input pool for the seed and encodes every
// submit body.
func (w *workload) generate(seed int64) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{
		entries:  make([]entry, w.poolSize),
		bodies:   make([][]byte, w.poolSize),
		minWidth: math.MaxInt,
	}
	seen := make(map[string]int, w.poolSize)
	for i := range in.entries {
		e := w.entry(rng, i)
		key := e.backend + "\x00" + e.circ.Fingerprint()
		if j, dup := seen[key]; dup {
			return nil, fmt.Errorf("%s: inputs %d and %d are identical", w.name, j, i)
		}
		seen[key] = i
		body, err := json.Marshal(struct {
			Backend string        `json:"backend"`
			Circuit *tilt.Circuit `json:"circuit"`
		}{e.backend, e.circ})
		if err != nil {
			return nil, fmt.Errorf("%s: encode input %d: %w", w.name, i, err)
		}
		in.entries[i] = e
		in.bodies[i] = body
		in.minWidth = min(in.minWidth, e.circ.NumQubits())
	}
	if w.head > in.minWidth {
		return nil, fmt.Errorf("%s: -head %d exceeds the narrowest circuit (%d qubits); those jobs would fail",
			w.name, w.head, in.minWidth)
	}
	return in, nil
}

// cyclic walks the pool in order, repeating each input burst times.
func cyclic(burst int) func(int64, int) func() int {
	return func(_ int64, n int) func() int {
		i := 0
		return func() int {
			k := (i / burst) % n
			i++
			return k
		}
	}
}

// revisiting walks the pool in order, but once `recent` requests have gone
// out, with probability p a request repeats one of the last `recent`
// instead. The warm-up therefore sees the same strata for every seed.
func revisiting(p float64, recent int) func(int64, int) func() int {
	return func(seed int64, n int) func() int {
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		var last []int
		next := 0
		return func() int {
			var k int
			if len(last) == recent && rng.Float64() < p {
				k = last[rng.Intn(len(last))]
			} else {
				k = next % n
				next++
			}
			last = append(last, k)
			if len(last) > recent {
				last = last[1:]
			}
			return k
		}
	}
}

// intakeEntry alternates seeded GHZ chains and random circuits of 16–20
// qubits with at most 20 CNOTs.
func intakeEntry(rng *rand.Rand, i int) entry {
	n := 16 + (i/2)%5
	if i%2 == 0 {
		return entry{"TILT", ghzVariant(rng, n)}
	}
	return entry{"TILT", workloads.Random(n, 10+(i/10)%11, rng.Int63()).Circuit}
}

// ghzVariant prepares a GHZ state along a seeded qubit order and ends with a
// seeded phase, so no two variants share a fingerprint.
func ghzVariant(rng *rand.Rand, n int) *tilt.Circuit {
	perm := rng.Perm(n)
	c := tilt.NewCircuit(n)
	c.ApplyH(perm[0])
	for k := 0; k+1 < n; k++ {
		c.ApplyCNOT(perm[k], perm[k+1])
	}
	c.ApplyRZ(rng.Float64()*2*math.Pi, perm[n-1])
	return c
}

// sweepBackends gives TILT, QCCD and IdealTI the 2:1:1 ratio.
var sweepBackends = [4]string{"TILT", "QCCD", "TILT", "IdealTI"}

// sweepEntry cycles the six Table II families over widths 16–64 and the
// three backends.
func sweepEntry(rng *rand.Rand, i int) entry {
	family := i % 6
	backend := sweepBackends[(i/6)%4]
	w := 16 + ((i/24)*19+family*7)%49
	var c *tilt.Circuit
	switch family {
	case 0: // ADDER over 2n+2 qubits, on a seeded input
		c = withPrep(rng, workloads.AdderN(max(7, (w-2)/2)).Circuit)
	case 1: // BV with a seeded secret
		secret := make([]bool, w-1)
		for k := range secret {
			secret[k] = rng.Intn(2) == 1
		}
		secret[rng.Intn(len(secret))] = true
		c = workloads.BVSecret(secret).Circuit
	case 2:
		c = workloads.QAOAN(w, 2, rng.Int63()).Circuit
	case 3: // RCS on a 4-row grid
		c = workloads.RCSGrid(4, w/4, 8, rng.Int63()).Circuit
	case 4:
		c = withPrep(rng, workloads.QFTN(w).Circuit)
	default: // Grover over 2m-2 qubits with a seeded target, on a seeded input
		m := max(9, (w+2)/2)
		c = withPrep(rng, workloads.GroverN(m, uint64(rng.Int63n(1<<uint(m))), 1).Circuit)
	}
	return entry{backend, c}
}

// mcEntry cycles QFT-8, random circuits of 10 qubits and 20 gates, and
// QAOA-10 at depth 1: all small enough for the statevector fidelity
// estimate, and sized so that every input costs about the same. A job
// costs about 2^width times its gate count, so over mixed sizes (QFT-10
// costs 20× a random 8-qubit circuit) the latency percentiles sit on the
// cliffs between sizes and jump from run to run. Longer random circuits
// are left out: the Monte-Carlo clean probability runs about one standard
// error above the analytic one, and at 9 qubits and 40 gates one circuit
// in 30 deviated by over 3 standard errors, near the cross-check's 4.
func mcEntry(rng *rand.Rand, i int) entry {
	var c *tilt.Circuit
	switch i % 3 {
	case 0:
		c = withPrep(rng, workloads.QFTN(8).Circuit)
	case 1:
		c = workloads.Random(10, 20, rng.Int63()).Circuit
	default:
		c = workloads.QAOAN(10, 1, rng.Int63()).Circuit
	}
	return entry{"TILT", c}
}

// herdEntry cycles QFT, QAOA and ADDER variants of 32–64 qubits.
func herdEntry(rng *rand.Rand, i int) entry {
	w := 32 + ((i/3)*13)%33
	var c *tilt.Circuit
	switch i % 3 {
	case 0:
		c = withPrep(rng, workloads.QFTN(w).Circuit)
	case 1:
		c = workloads.QAOAN(w, 8, rng.Int63()).Circuit
	default:
		c = withPrep(rng, workloads.AdderN((w-2)/2).Circuit)
	}
	return entry{"TILT", c}
}

// withPrep returns body preceded by a seeded RY on every qubit: an input
// state that makes each variant distinct without changing its structure.
func withPrep(rng *rand.Rand, body *tilt.Circuit) *tilt.Circuit {
	c := tilt.NewCircuit(body.NumQubits())
	for q := 0; q < c.NumQubits(); q++ {
		c.ApplyRY(rng.Float64()*math.Pi, q)
	}
	for _, g := range body.Gates() {
		if err := c.Add(g); err != nil {
			panic(err) // the gate came from a circuit of the same width
		}
	}
	return c
}
