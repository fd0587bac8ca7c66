// Command linqbench is the end-to-end and per-layer benchmark of linqd and
// the LinQ toolflow behind it. It runs named workloads against a real linqd
// subprocess from a single load-generator process (GOMAXPROCS=2) that holds
// exactly two connections to the daemon: one request connection for
// submits, result fetches and scrapes, and one GET /v1/events stream that
// reports completions.
//
// Usage, from the repository root (bench/run.sh builds linqbench first and
// keeps the Go build cache inside the checkout):
//
//	bash bench/run.sh --workload intake-small --seed 1 --seconds 10 --trace 0
//
// With -trace 0 the run starts linqd with tracing off and prints the
// end-to-end metrics, its timings scaled to a nominal host speed (see
// hostspeed.go); with -trace 1 it prints the per-layer metrics, taken
// from an untraced run (/metrics deltas and job stamps), a traced run
// (daemon spans stitched to the generator's own), and an in-process replay
// of each layer's public functions. Every result is checked against
// committed reference digests (seed 1) or in-process execution (any other
// seed). The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 9121, "failed": 0, "metrics": {...}}
//
// See bench/README.md for the workloads and what each metric should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/tracing"
)

func main() {
	runtime.GOMAXPROCS(2)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	scale   float64
	root    string // repository root
	out     string // journals and span files
	linqd   string // daemon binary
}

// Fixed job counts, multiplied by -scale.
const (
	setupRepeats = 9    // daemon set-ups per end-to-end run; setup_s is their median
	tracedJobs   = 2000 // cap on the traced run
)

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("linqbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	name := fs.String("workload", "", "workload to run (default: all, in turn)")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed the inputs are generated from")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics")
	fs.Float64Var(&cfg.scale, "scale", 1, "multiplier on the fixed job counts (journal pre-run, set-up repeats, traced jobs, replayed inputs)")
	fs.StringVar(&cfg.root, "root", ".", "repository root, holding cmd/linqd and bench/testdata")
	fs.StringVar(&cfg.linqd, "linqd", "", "linqd binary (default: build cmd/linqd into <root>/.bench_build/linqbench)")
	fs.StringVar(&cfg.out, "out", "", "directory for journals and span files (default <root>/bench/out)")
	update := fs.Bool("update-golden", false, "rewrite bench/testdata/<workload>.golden from seed-1 inputs executed in-process, then exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = *trace == 1
	if (*trace != 0 && *trace != 1) || cfg.seconds <= 0 || cfg.scale <= 0 || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "linqbench: want -trace 0|1, positive -seconds and -scale, and no arguments")
		return 2
	}
	ws := allWorkloads
	if *name != "" {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(stderr, "linqbench:", err)
			return 2
		}
		ws = []*workload{w}
	}
	if *update {
		for _, w := range ws {
			if err := writeGolden(cfg.root, w, stderr); err != nil {
				fmt.Fprintln(stderr, "linqbench:", err)
				return 1
			}
		}
		return 0
	}
	if cfg.out == "" {
		cfg.out = filepath.Join(cfg.root, "bench", "out")
	}
	if cfg.linqd == "" {
		cfg.linqd = filepath.Join(cfg.root, ".bench_build", "linqbench", "linqd")
		if err := buildLinqd(cfg.root, cfg.linqd); err != nil {
			fmt.Fprintln(stderr, "linqbench:", err)
			return 1
		}
	}
	for _, w := range ws {
		rep, err := runWorkload(cfg, w, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "linqbench: %s: %v\n", w.name, err)
			return 1
		}
		rep.print(stdout, w, cfg)
	}
	return 0
}

// report is one run's outcome, printed as the final JSON line.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *report) print(w io.Writer, wl *workload, cfg config) {
	mode := "end-to-end"
	if cfg.trace {
		mode = "per-layer"
	}
	fmt.Fprintf(w, "linqbench %s seed=%d seconds=%g %s: attempted %d, failed %d, correct %v\n",
		wl.name, cfg.seed, cfg.seconds, mode, r.Attempted, r.Failed, r.Correct)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-32s %14.4f %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	b, _ := json.Marshal(r) // plain data: cannot fail
	fmt.Fprintf(w, "%s\n", b)
}

// endToEnd lists the end-to-end metrics, as BENCHMARK.json declares them.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"throughput_jps", "jobs/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"submit_p50_ms", "ms"},
	{"cpu_ms_per_job", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the per-layer metrics, as BENCHMARK.json declares them.
var perLayer = []struct{ name, unit string }{
	{"linqhttp.submit_self_ms.p50", "ms"},
	{"linqhttp.submit_self_ms.p90", "ms"},
	{"linqhttp.result_self_ms.p50", "ms"},
	{"circuit.decode_us.p50", "us"},
	{"circuit.fingerprint_us.p50", "us"},
	{"result.encode_us.p50", "us"},
	{"jobs.queue_ms.p50", "ms"},
	{"jobs.queue_ms.p90", "ms"},
	{"jobs.run_ms.p50", "ms"},
	{"jobs.run_ms.p90", "ms"},
	{"jobs.self_ms.p50", "ms"},
	{"jobs.self_ms.p90", "ms"},
	{"jobs.dedup_ratio", "ratio"},
	{"journal.fsyncs_per_job", "count/job"},
	{"journal.appends_per_job", "count/job"},
	{"journal.append_us.p50", "us"},
	{"journal.append_us.p90", "us"},
	{"journal.replay_ms", "ms"},
	{"lru.hit_ratio", "ratio"},
	{"core.compiles_per_job", "count/job"},
	{"compile.self_ms.p50", "ms"},
	{"pass.decompose_ms.p50", "ms"},
	{"pass.place_ms.p50", "ms"},
	{"pass.insert-swaps_ms.p50", "ms"},
	{"pass.insert-swaps_ms.p90", "ms"},
	{"pass.schedule_ms.p50", "ms"},
	{"pass.schedule_ms.p90", "ms"},
	{"swapins.us_per_swap", "us"},
	{"schedule.us_per_move", "us"},
	{"simulate.tilt_ms.p50", "ms"},
	{"simulate.qccd_ms.p50", "ms"},
	{"simulate.idealti_ms.p50", "ms"},
	{"sim.simulate_us.p50", "us"},
	{"qccd.best_capacity_ms.p50", "ms"},
	{"mc.shots_per_cpu_s", "shots/s"},
	{"mc.shard_ms.mean", "ms"},
	{"mc.clean_ns_per_event_shot", "ns"},
	{"mc.state_ns_per_event_shot", "ns"},
	{"mc.engine_build_us", "us"},
	{"qsim.ns_per_amp_gate", "ns"},
	{"share.linqhttp", "ratio"},
	{"share.queue", "ratio"},
	{"share.jobs", "ratio"},
	{"share.compile", "ratio"},
	{"share.simulate", "ratio"},
	{"tracing.overhead_pct", "%"},
	{"client.lag_ms.p99", "ms"},
	{"client.events_fallback", "count"},
	{"host.slowdown", "ratio"},
}

// newReport attaches units to the measured values; every listed metric
// must have been measured.
func newReport(v verdict, values map[string]float64, list []struct{ name, unit string }) (*report, error) {
	r := &report{
		Correct:   v.wrong == 0 && v.checked > 0,
		Attempted: v.attempted,
		Failed:    v.failed,
		Metrics:   make(map[string]metricValue, len(list)),
	}
	for _, m := range list {
		val, ok := values[m.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", m.name)
		}
		r.Metrics[m.name] = metricValue{val, m.unit}
	}
	return r, nil
}

// session is one live daemon and the generator's connection to it.
type session struct {
	d    *daemon
	c    *conn
	next func() int // the request stream, positioned after the warm-up
}

// close ends the event stream and drains and stops the daemon; it is safe
// to call again.
func (s *session) close() error {
	if s == nil || s.d == nil {
		return nil
	}
	if s.c != nil {
		s.c.close()
	}
	err := s.d.stop()
	s.d = nil
	return err
}

// runWorkload generates the workload's inputs and runs the requested mode.
func runWorkload(cfg config, w *workload, log io.Writer) (*report, error) {
	in, err := w.generate(cfg.seed)
	if err != nil {
		return nil, err
	}
	var golden []string
	if cfg.seed == goldenSeed {
		if golden, err = loadGolden(cfg.root, w); err != nil {
			return nil, err
		}
	}
	refs := newReferences(w, in, golden)
	dir := filepath.Join(cfg.out, w.name)
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	template := ""
	if w.preRun > 0 {
		template = filepath.Join(dir, "journal-template")
		if err := preRun(cfg, w, in, template); err != nil {
			return nil, fmt.Errorf("journal pre-run: %w", err)
		}
	}
	if cfg.trace {
		return measureLayers(cfg, w, in, refs, dir, template, log)
	}
	return measureEndToEnd(cfg, w, in, refs, dir, template, log)
}

// preRun journals the workload's first jobs through an untimed daemon, so
// later set-ups start from a journal to replay.
func preRun(cfg config, w *workload, in *inputs, template string) error {
	n := max(1, int(math.Round(float64(w.preRun)*cfg.scale)))
	args := append(w.daemonFlags(), "-journal-dir", template, "-journal-nosync", "-trace-store", "0")
	d, err := startDaemon(cfg.linqd, args)
	if err != nil {
		return err
	}
	s := &session{d: d}
	defer s.close()
	if s.c, err = dial(d.base, nil); err != nil {
		return err
	}
	seq := 0
	r, err := s.c.run(phase{window: w.window, maxJobs: n, dur: time.Hour}, w.stream(cfg.seed, w.poolSize), in.bodies, &seq)
	if err != nil {
		return err
	}
	if r.lost > 0 {
		return fmt.Errorf("%d jobs lost", r.lost)
	}
	return s.close()
}

// setUp starts linqd (on a fresh copy of the journal template when the
// workload journals), waits for /healthz, subscribes to events and runs the
// warm-up: two windows of jobs from next. It returns the live session and
// the time from exec to the end of the warm-up.
func setUp(cfg config, w *workload, in *inputs, next func() int, dir, template string, tracer *tracing.Tracer, extra ...string) (*session, time.Duration, error) {
	args := w.daemonFlags()
	if w.journal {
		jdir := filepath.Join(dir, "journal")
		var err error
		if template != "" {
			err = copyDir(template, jdir)
		} else {
			err = os.RemoveAll(jdir)
		}
		if err != nil {
			return nil, 0, err
		}
		args = append(args, "-journal-dir", jdir)
		// Write back the dirty pages of the copy and of earlier runs now:
		// on ext4 an fsync may have to flush them, which would charge the
		// state left by the harness to linqd's journal appends.
		syscall.Sync()
	}
	args = append(args, extra...)
	start := time.Now()
	d, err := startDaemon(cfg.linqd, args)
	if err != nil {
		return nil, 0, err
	}
	s := &session{d: d, next: next}
	if s.c, err = dial(d.base, tracer); err != nil {
		return nil, 0, errors.Join(err, s.close())
	}
	seq := 0
	r, err := s.c.run(phase{window: w.window, maxJobs: 2 * w.window, dur: time.Hour}, s.next, in.bodies, &seq)
	if err == nil && r.lost > 0 {
		err = fmt.Errorf("warm-up lost %d jobs", r.lost)
	}
	if err != nil {
		return nil, 0, errors.Join(err, s.close())
	}
	return s, time.Since(start), nil
}

// timedPhases is the workload's closed loop for the measured seconds, or,
// with open set and where the workload has one, the closed loop followed by
// its open loop.
func (w *workload) timedPhases(seconds float64, open bool) []phase {
	total := time.Duration(seconds * float64(time.Second))
	if !open || w.openShare == 0 {
		return []phase{{window: w.window, dur: total}}
	}
	o := time.Duration(float64(total) * w.openShare)
	return []phase{{window: w.window, dur: total - o}, {rate: w.openRate, dur: o}}
}

// timedRun is the measured stretch of one session.
type timedRun struct {
	phases []*phaseResult
	cpu    []cpuSample // linqd CPU time through the phases
	rss    float64     // linqd VmHWM at the end, MiB
	before scrape      // /metrics around the phases
	after  scrape
}

func (s *session) timed(in *inputs, phases []phase) (*timedRun, error) {
	tr := &timedRun{}
	var err error
	if tr.before, err = s.scrape(); err != nil {
		return nil, err
	}
	stop := make(chan struct{})
	samples := s.d.sampleCPU(stop)
	seq := 0
	for _, ph := range phases {
		r, err := s.c.run(ph, s.next, in.bodies, &seq)
		if err != nil {
			close(stop)
			<-samples
			return nil, err
		}
		tr.phases = append(tr.phases, r)
	}
	close(stop)
	if tr.cpu = <-samples; len(tr.cpu) < 2 {
		return nil, errors.New("could not sample linqd's CPU time")
	}
	if tr.rss, err = s.d.peakRSS(); err != nil {
		return nil, err
	}
	if tr.after, err = s.scrape(); err != nil {
		return nil, err
	}
	return tr, nil
}

// cpuBetween is linqd's CPU time from a to b, interpolated between samples.
func (tr *timedRun) cpuBetween(a, b time.Time) time.Duration {
	return cpuAt(tr.cpu, b) - cpuAt(tr.cpu, a)
}

// cpuSeconds is linqd's CPU time over all the phases, in seconds.
func (tr *timedRun) cpuSeconds() float64 {
	return (tr.cpu[len(tr.cpu)-1].cpu - tr.cpu[0].cpu).Seconds()
}

func (s *session) scrape() (scrape, error) {
	status, body, err := s.c.get("/metrics", "")
	if err == nil && status != 200 {
		err = fmt.Errorf("GET /metrics: status %d", status)
	}
	if err != nil {
		return nil, err
	}
	return parseScrape(body), nil
}

// completed returns the jobs whose result was read.
func completed(phases []*phaseResult) []*job {
	var out []*job
	for _, ph := range phases {
		for _, j := range ph.jobs {
			if j.result != nil {
				out = append(out, j)
			}
		}
	}
	return out
}

// measureEndToEnd is the -trace 0 run: repeated set-ups, then the closed
// loop against the last daemon, with tracing off. Every timing is divided by
// the host's slowdown over the run (see hostspeed.go); standard error shows
// the values as measured.
func measureEndToEnd(cfg config, w *workload, in *inputs, refs *references, dir, template string, log io.Writer) (*report, error) {
	host := startHostSampler()
	defer host.slowdown()
	// Every set-up warms up on the same first inputs of the request stream,
	// so setup_s is a median over repeats of one piece of work; the timed
	// phase continues the last set-up's stream.
	var setups []float64
	var s *session
	defer func() { _ = s.close() }()
	for range max(1, int(math.Round(setupRepeats*cfg.scale))) {
		if err := s.close(); err != nil {
			return nil, err
		}
		var took time.Duration
		var err error
		if s, took, err = setUp(cfg, w, in, w.stream(cfg.seed, w.poolSize), dir, template, nil, "-trace-store", "0"); err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
	}
	tr, err := s.timed(in, w.timedPhases(cfg.seconds, false))
	if err != nil {
		return nil, err
	}
	slow := host.slowdown()
	if err := s.close(); err != nil {
		return nil, err
	}
	v, _, err := refs.check(w, tr.phases)
	if err != nil {
		return nil, err
	}
	v.report(log, w)

	closed := tr.phases[0]
	var latency, submit []float64
	for _, j := range closed.jobs {
		submit = append(submit, ms(j.submitted.Sub(j.start)))
		if j.result != nil {
			latency = append(latency, ms(j.latency()))
		}
	}
	measured := map[string]float64{
		"setup_s":        quantile(setups, 0.5),
		"throughput_jps": closed.throughput(),
		"latency_p50_ms": quantile(latency, 0.5),
		"latency_p90_ms": quantile(latency, 0.9),
		"submit_p50_ms":  quantile(submit, 0.5),
		"cpu_ms_per_job": ratio(ms(tr.cpuBetween(closed.start, closed.stop)), float64(len(closed.finished()))),
		"peak_rss_mb":    tr.rss,
	}
	fmt.Fprintf(log, "linqbench: %s: host slowdown %.3f; as measured:", w.name, slow)
	values := make(map[string]float64, len(measured))
	for _, m := range endToEnd {
		val := measured[m.name]
		fmt.Fprintf(log, " %s %.4g", m.name, val)
		switch m.name {
		case "throughput_jps":
			val *= slow
		case "peak_rss_mb":
		default:
			val /= slow
		}
		values[m.name] = val
	}
	fmt.Fprintln(log)
	return newReport(v, values, endToEnd)
}

// lagP99 is the 99th-percentile open-loop send lag in ms (0 without an
// open loop).
func lagP99(phases []*phaseResult) float64 {
	var lags []float64
	for _, ph := range phases {
		if ph.rate == 0 {
			continue
		}
		for _, j := range ph.jobs {
			lags = append(lags, ms(j.lag()))
		}
	}
	return quantile(lags, 0.99)
}

// lagCheck flags a run whose generator fell behind its open-loop schedule:
// its open-loop latencies then undercount queueing.
func lagCheck(log io.Writer, phases []*phaseResult) {
	if lag := lagP99(phases); lag > 1 {
		fmt.Fprintf(log, "linqbench: INVALID RUN: open-loop send lag p99 %.2f ms exceeds 1 ms\n", lag)
	}
}

func (v verdict) report(log io.Writer, w *workload) {
	for _, n := range v.notes {
		fmt.Fprintf(log, "linqbench: %s: %s\n", w.name, n)
	}
}

// measureLayers is the -trace 1 run: half the seconds untraced for the
// /metrics and job-stamp layers, half (at most tracedJobs jobs) traced for
// the span layers, then the in-process replay.
func measureLayers(cfg config, w *workload, in *inputs, refs *references, dir, template string, log io.Writer) (*report, error) {
	half := cfg.seconds / 2
	next := w.stream(cfg.seed, w.poolSize)
	s, _, err := setUp(cfg, w, in, next, dir, template, nil, "-trace-store", "0")
	if err != nil {
		return nil, err
	}
	defer func() { _ = s.close() }()
	plainHost := startHostSampler()
	defer plainHost.slowdown()
	plain, err := s.timed(in, w.timedPhases(half, true))
	if err != nil {
		return nil, err
	}
	plainSlow := plainHost.slowdown()
	fallbacks := s.c.fallbacks
	if err := s.close(); err != nil {
		return nil, err
	}

	capJobs := max(1, int(math.Round(tracedJobs*cfg.scale)))
	// Room for every job's trace, plus the traces of the trace fetches.
	store := 4 * (capJobs + 2*w.window)
	tracer := tracing.New("client", tracing.WithMaxTraces(store))
	if s, _, err = setUp(cfg, w, in, next, dir, template, tracer, "-trace-store", fmt.Sprint(store), "-store", fmt.Sprint(store)); err != nil {
		return nil, err
	}
	tracedHost := startHostSampler()
	defer tracedHost.slowdown()
	traced, err := s.c.run(phase{window: w.window, dur: time.Duration(half * float64(time.Second)), maxJobs: capJobs},
		s.next, in.bodies, new(int))
	if err != nil {
		return nil, err
	}
	tracedSlow := tracedHost.slowdown()
	traces, err := s.traces(tracer, completed([]*phaseResult{traced}))
	if err != nil {
		return nil, err
	}
	fallbacks += s.c.fallbacks
	if err := s.close(); err != nil {
		return nil, err
	}
	if err := writeSpans(filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d.spans.jsonl", w.name, cfg.seed)), traces); err != nil {
		return nil, err
	}

	all := append(slices.Clip(plain.phases), traced)
	v, parsed, err := refs.check(w, all)
	if err != nil {
		return nil, err
	}
	v.report(log, w)
	lagCheck(log, plain.phases)

	values := map[string]float64{}
	plainLayers(values, w, plain, parsed)
	values["client.lag_ms.p99"] = lagP99(plain.phases)
	values["client.events_fallback"] = float64(fallbacks)
	values["host.slowdown"] = plainSlow
	// The untraced and traced daemons run seconds apart, so each throughput
	// is first scaled to the nominal host.
	values["tracing.overhead_pct"] = (ratio(plain.phases[0].throughput()*plainSlow, traced.throughput()*tracedSlow) - 1) * 100
	spanLayers(values, w, in, traces, log)

	// The replay runs with no daemon left, on the first distinct inputs in
	// request order, each carrying a result the daemon served for it.
	results := map[int][]byte{}
	for _, j := range completed(all) {
		results[j.entry] = j.result
	}
	order := firstDistinct(w.stream(cfg.seed, w.poolSize), max(1, int(math.Round(replayInputs*cfg.scale))), w.poolSize)
	budget := time.Duration(float64(time.Second) * math.Min(1, cfg.scale))
	replayed, err := replayLayers(w, in, order, results, filepath.Join(dir, "replay-journal"), budget)
	if err != nil {
		return nil, fmt.Errorf("layer replay: %w", err)
	}
	for k, val := range replayed {
		values[k] = val
	}
	return newReport(v, values, perLayer)
}

// firstDistinct returns the first n distinct inputs of the request stream.
func firstDistinct(next func() int, n, pool int) []int {
	seen := map[int]bool{}
	var out []int
	for i := 0; len(out) < min(n, pool) && i < 100*n; i++ {
		if k := next(); !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

// plainLayers derives the layer metrics of the untraced run: counters from
// the /metrics deltas and queue and run times from the job stamps.
func plainLayers(values map[string]float64, w *workload, tr *timedRun, parsed map[*job]*fetched) {
	var queue, runT []float64
	for _, j := range completed(tr.phases) {
		f := parsed[j]
		if f == nil || f.Started.IsZero() {
			continue
		}
		queue = append(queue, ms(f.Started.Sub(f.Submitted)))
		runT = append(runT, ms(f.Finished.Sub(f.Started)))
	}
	values["jobs.queue_ms.p50"] = quantile(queue, 0.5)
	values["jobs.queue_ms.p90"] = quantile(queue, 0.9)
	values["jobs.run_ms.p50"] = quantile(runT, 0.5)
	values["jobs.run_ms.p90"] = quantile(runT, 0.9)

	d := func(name string) float64 { return tr.before.delta(tr.after, name) }
	submitted := d("linq_jobs_submitted_total")
	hits := d("linq_compile_cache_hits_total")
	values["jobs.dedup_ratio"] = ratio(d("linq_jobs_deduped_total"), submitted)
	values["journal.fsyncs_per_job"] = ratio(d("linq_journal_fsyncs_total"), submitted)
	values["journal.appends_per_job"] = ratio(d("linq_journal_appends_total"), submitted)
	values["lru.hit_ratio"] = ratio(hits, hits+d("linq_compile_cache_misses_total"))
	values["core.compiles_per_job"] = ratio(d("linq_compiles_total"), submitted)
	values["mc.shots_per_cpu_s"] = ratio(d("linq_mc_shots_total"), tr.cpuSeconds())
	values["mc.shard_ms.mean"] = 1000 * ratio(d("linq_mc_shard_seconds_sum"), d("linq_mc_shard_seconds_count"))
}

// traces fetches each job's daemon trace and joins it to the generator's
// client spans.
func (s *session) traces(tracer *tracing.Tracer, jobs []*job) (map[*job][]tracing.SpanData, error) {
	out := make(map[*job][]tracing.SpanData, len(jobs))
	for _, j := range jobs {
		status, body, err := s.c.get("/v1/traces/"+j.id, "")
		if err != nil {
			return nil, err
		}
		if status != 200 {
			return nil, fmt.Errorf("GET /v1/traces/%s: status %d: %s", j.id, status, body)
		}
		var t struct {
			Spans []tracing.SpanData `json:"spans"`
		}
		if err := json.Unmarshal(body, &t); err != nil {
			return nil, fmt.Errorf("trace of %s: %w", j.id, err)
		}
		client, _ := tracer.Trace(j.span.Context().TraceID)
		out[j] = append(client, t.Spans...)
	}
	return out, nil
}

// writeSpans saves every span of the traced run, one JSON object a line.
func writeSpans(path string, traces map[*job][]tracing.SpanData) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, spans := range traces {
		for _, sp := range spans {
			if err := enc.Encode(sp); err != nil {
				f.Close()
				return err
			}
		}
	}
	return f.Close()
}

// spanLayers derives the layer metrics of the traced run. A layer's share
// is its time summed over jobs, as a fraction of the summed client-observed
// latency; the layers' intervals are disjoint and nested in the client's,
// so the shares sum to at most 1.
func spanLayers(values map[string]float64, w *workload, in *inputs, traces map[*job][]tracing.SpanData, log io.Writer) {
	var submitSelf, resultSelf, jobSelf, compileSelf []float64
	pass := map[string][]float64{}
	simulate := map[string][]float64{}
	var latency, httpT, queueT, jobsT, compileT, simT time.Duration
	for j, spans := range traces {
		t := newSpanTree(spans)
		for _, sp := range t.named("client job") {
			latency += sp.Duration()
		}
		for _, sp := range t.named("http submit") {
			self := t.self(sp)
			httpT += self
			submitSelf = append(submitSelf, ms(self))
		}
		for _, sp := range t.named("http result") {
			self := t.self(sp)
			httpT += self
			resultSelf = append(resultSelf, ms(self))
		}
		for _, sp := range t.named("job") {
			self := t.self(sp)
			jobsT += self
			jobSelf = append(jobSelf, ms(self))
		}
		for _, sp := range t.named("queue-wait") {
			queueT += sp.Duration()
		}
		for _, sp := range t.named("compile") {
			compileT += sp.Duration()
			compileSelf = append(compileSelf, ms(t.self(sp)))
		}
		for _, sp := range t.spans {
			if name, ok := strings.CutPrefix(sp.Name, "pass "); ok {
				pass[name] = append(pass[name], ms(sp.Duration()))
			}
		}
		backend := strings.ToLower(in.entries[j.entry].backend)
		for _, sp := range t.named("simulate") {
			simT += sp.Duration()
			simulate[backend] = append(simulate[backend], ms(sp.Duration()))
		}
	}
	values["linqhttp.submit_self_ms.p50"] = quantile(submitSelf, 0.5)
	values["linqhttp.submit_self_ms.p90"] = quantile(submitSelf, 0.9)
	values["linqhttp.result_self_ms.p50"] = quantile(resultSelf, 0.5)
	values["jobs.self_ms.p50"] = quantile(jobSelf, 0.5)
	values["jobs.self_ms.p90"] = quantile(jobSelf, 0.9)
	values["compile.self_ms.p50"] = quantile(compileSelf, 0.5)
	values["pass.decompose_ms.p50"] = quantile(pass["decompose"], 0.5)
	values["pass.place_ms.p50"] = quantile(pass["place"], 0.5)
	values["pass.insert-swaps_ms.p50"] = quantile(pass["insert-swaps"], 0.5)
	values["pass.insert-swaps_ms.p90"] = quantile(pass["insert-swaps"], 0.9)
	values["pass.schedule_ms.p50"] = quantile(pass["schedule"], 0.5)
	values["pass.schedule_ms.p90"] = quantile(pass["schedule"], 0.9)
	values["simulate.tilt_ms.p50"] = quantile(simulate["tilt"], 0.5)
	values["simulate.qccd_ms.p50"] = quantile(simulate["qccd"], 0.5)
	values["simulate.idealti_ms.p50"] = quantile(simulate["idealti"], 0.5)

	shares := []struct {
		name string
		t    time.Duration
	}{
		{"linqhttp", httpT}, {"queue", queueT}, {"jobs", jobsT}, {"compile", compileT}, {"simulate", simT},
	}
	top := shares[0]
	for _, sh := range shares {
		values["share."+sh.name] = ratio(float64(sh.t), float64(latency))
		if sh.t > top.t {
			top = sh
		}
	}
	fmt.Fprintf(log, "linqbench: %s: top layer by share of client latency: %s (%.2f)\n",
		w.name, top.name, ratio(float64(top.t), float64(latency)))
}
