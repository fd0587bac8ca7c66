package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("jobs_total", "jobs")
	b := r.Counter("jobs_total", "jobs")
	if a != b {
		t.Fatalf("same name returned distinct counters")
	}
	a.Inc()
	a.Add(4)
	a.Add(-7) // ignored: counters are monotone
	if got := b.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
}

func TestCounterVecChildren(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("hits_total", "hits", "backend")
	v.With("TILT").Add(3)
	v.With("QCCD").Inc()
	if got := v.With("TILT").Value(); got != 3 {
		t.Fatalf("TILT child = %d, want 3", got)
	}
	if got := v.With("QCCD").Value(); got != 1 {
		t.Fatalf("QCCD child = %d, want 1", got)
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("queue_depth", "depth")
	g.Set(10)
	g.Inc()
	g.Dec()
	g.Add(-3.5)
	if got := g.Value(); got != 6.5 {
		t.Fatalf("gauge = %v, want 6.5", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 2, 100} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Fatalf("count = %d, want 5", got)
	}
	if got, want := h.Sum(), 102.65; math.Abs(got-want) > 1e-9 {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	// Upper bounds are inclusive and buckets cumulative: 0.05 and 0.1 fall
	// in le="0.1", 0.5 and 1... 0.5 in le="1", 2 in le="10", 100 only +Inf.
	for _, want := range []string{
		`lat_seconds_bucket{le="0.1"} 2`,
		`lat_seconds_bucket{le="1"} 3`,
		`lat_seconds_bucket{le="10"} 4`,
		`lat_seconds_bucket{le="+Inf"} 5`,
		`lat_seconds_count 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("b_total", "b counter", "backend", "status").With("TILT", "ok").Add(7)
	r.Gauge("a_gauge", "a gauge").Set(1.5)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := "# HELP a_gauge a gauge\n" +
		"# TYPE a_gauge gauge\n" +
		"a_gauge 1.5\n" +
		"# HELP b_total b counter\n" +
		"# TYPE b_total counter\n" +
		`b_total{backend="TILT",status="ok"} 7` + "\n"
	if b.String() != want {
		t.Fatalf("exposition mismatch:\ngot:\n%swant:\n%s", b.String(), want)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("esc_total", "", "path").With(`a"b\c` + "\n").Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if want := `esc_total{path="a\"b\\c\n"} 1`; !strings.Contains(b.String(), want) {
		t.Fatalf("escaped label missing %q in %q", want, b.String())
	}
}

func TestReRegistrationMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("x_total", "x")
}

func TestHistogramBucketMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Histogram("h_seconds", "h", []float64{1, 2})
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a histogram with different buckets did not panic")
		}
	}()
	r.Histogram("h_seconds", "h", []float64{1, 2, 3})
}

// TestConcurrentInstruments hammers every instrument kind from many
// goroutines (meaningful under -race) and asserts the settled totals.
func TestConcurrentInstruments(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h_seconds", "", nil)
	v := r.CounterVec("v_total", "", "worker")

	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(0.001)
				v.With("shared").Inc()
			}
		}()
	}
	wg.Wait()

	const total = workers * perWorker
	if got := c.Value(); got != total {
		t.Errorf("counter = %d, want %d", got, total)
	}
	if got := g.Value(); got != total {
		t.Errorf("gauge = %v, want %d", got, total)
	}
	if got := h.Count(); got != total {
		t.Errorf("histogram count = %d, want %d", got, total)
	}
	if got := v.With("shared").Value(); got != total {
		t.Errorf("vec child = %d, want %d", got, total)
	}
}

// TestWithHitAllocsNothing pins the hot-path contract: looking up an
// existing labeled child allocates nothing, for every Vec kind.
func TestWithHitAllocsNothing(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("hits_total", "hits", "backend", "status")
	gv := r.GaugeVec("inflight", "in flight", "tenant")
	hv := r.HistogramVec("lat_seconds", "latency", nil, "backend")
	cv.With("TILT", "ok")
	gv.With("acme")
	hv.With("QCCD")
	for name, f := range map[string]func(){
		"CounterVec":   func() { cv.With("TILT", "ok").Inc() },
		"GaugeVec":     func() { gv.With("acme").Inc() },
		"HistogramVec": func() { hv.With("QCCD").Observe(0.01) },
	} {
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s.With hit: %v allocs, want 0", name, n)
		}
	}
}
