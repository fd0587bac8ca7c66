// Package metrics is a dependency-free telemetry registry for the LinQ
// toolflow: atomic counters, gauges, and fixed-bucket histograms, optionally
// fanned out into labeled children, with a Prometheus text-format exposition
// writer (WritePrometheus) so a scrape endpoint is one io.Writer away.
//
// The package exists so the serving layer (cmd/linqd, internal/jobs,
// repro/runner) and the compiler/simulator hot paths (compile cache, pass
// pipeline, Monte-Carlo shards) can share one observability surface without
// pulling a client library into the module.
//
// All instrument methods are safe for concurrent use. Recording into an
// instrument handle (Inc/Add/Set/Observe) is atomic and lock-free; looking
// a labeled child up through Vec.With takes a short per-family mutex, so
// paths hot enough to care should resolve the child handle once and record
// through it (the instrument holders in the backend, runner, and jobs
// layers do exactly that for their unlabeled series). The registry-wide
// lock is only taken when a family is first created and during exposition.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Registry holds named metric families. The zero value is not usable; call
// NewRegistry. Instrument getters are get-or-create: calling Counter twice
// with the same name returns the same instrument, so packages can look up
// shared families without coordinating initialization order.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// family is one named metric family: a type, a help string, a label schema,
// and the children keyed by their label values.
type family struct {
	name    string
	help    string
	typ     string // "counter", "gauge", or "histogram"
	labels  []string
	buckets []float64 // histograms only

	mu       sync.Mutex
	children map[string]metric // key = joined label values ("" when unlabeled)
	order    []string          // child keys in creation order (sorted at write)
}

// metric is the common interface of the three instrument kinds, used by the
// exposition writer.
type metric interface {
	labelValues() []string
}

// get returns the family, creating it on first use and validating that a
// re-registration agrees on type and label schema.
func (r *Registry) get(name, help, typ string, labels []string, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.typ != typ {
			panic(fmt.Sprintf("metrics: %s re-registered as %s (was %s)", name, typ, f.typ))
		}
		if len(f.labels) != len(labels) {
			panic(fmt.Sprintf("metrics: %s re-registered with %d labels (was %d)", name, len(labels), len(f.labels)))
		}
		for i := range labels {
			if f.labels[i] != labels[i] {
				panic(fmt.Sprintf("metrics: %s re-registered with label %q (was %q)", name, labels[i], f.labels[i]))
			}
		}
		if len(f.buckets) != len(buckets) {
			panic(fmt.Sprintf("metrics: %s re-registered with %d buckets (was %d)", name, len(buckets), len(f.buckets)))
		}
		for i := range buckets {
			if f.buckets[i] != buckets[i] {
				panic(fmt.Sprintf("metrics: %s re-registered with bucket %g (was %g)", name, buckets[i], f.buckets[i]))
			}
		}
		return f
	}
	f := &family{
		name:     name,
		help:     help,
		typ:      typ,
		labels:   labels,
		buckets:  buckets,
		children: make(map[string]metric),
	}
	r.families[name] = f
	return f
}

// child returns the family's child for the label values, creating it with
// make on first use. A hit allocates nothing: the key is built in a stack
// buffer, and make gets a copy of values, so the variadic slice of a
// Vec.With call never escapes.
func (f *family) child(values []string, make func(vals []string) metric) metric {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("metrics: %s expects %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	var buf [128]byte
	key := buf[:0]
	for i, v := range values {
		if i > 0 {
			key = append(key, 0)
		}
		key = append(key, v...)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.children[string(key)]; ok {
		return m
	}
	k, m := string(key), make(append([]string(nil), values...))
	f.children[k] = m
	f.order = append(f.order, k)
	return m
}

// Counter is a monotonically increasing count.
type Counter struct {
	vals []string
	n    atomic.Int64
}

func (c *Counter) labelValues() []string { return c.vals }

// Inc adds one.
func (c *Counter) Inc() { c.n.Add(1) }

// Add adds n (n must be non-negative; negative deltas are ignored to keep
// the counter monotone).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.n.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.n.Load() }

// Counter returns the unlabeled counter named name, creating it on first
// use.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.get(name, help, "counter", nil, nil)
	return f.child(nil, func([]string) metric { return &Counter{} }).(*Counter)
}

// CounterVec is a counter family with labeled children.
type CounterVec struct{ f *family }

// CounterVec returns the counter family named name with the given label
// schema, creating it on first use.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.get(name, help, "counter", labels, nil)}
}

// With returns the child counter for the label values, creating it on first
// use.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.child(values, func(vals []string) metric { return &Counter{vals: vals} }).(*Counter)
}

// Gauge is a value that can go up and down, stored as a float64.
type Gauge struct {
	vals []string
	bits atomic.Uint64
}

func (g *Gauge) labelValues() []string { return g.vals }

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta (negative deltas decrease the gauge).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		cur := math.Float64frombits(old)
		if g.bits.CompareAndSwap(old, math.Float64bits(cur+delta)) {
			return
		}
	}
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Gauge returns the unlabeled gauge named name, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.get(name, help, "gauge", nil, nil)
	return f.child(nil, func([]string) metric { return &Gauge{} }).(*Gauge)
}

// GaugeVec is a gauge family with labeled children.
type GaugeVec struct{ f *family }

// GaugeVec returns the gauge family named name with the given label schema,
// creating it on first use.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.get(name, help, "gauge", labels, nil)}
}

// With returns the child gauge for the label values, creating it on first
// use.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.child(values, func(vals []string) metric { return &Gauge{vals: vals} }).(*Gauge)
}

// DefBuckets are the default histogram bucket upper bounds, in seconds —
// spanning sub-millisecond pass timings to multi-second compile jobs.
var DefBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// Histogram counts observations into fixed cumulative buckets and tracks
// their sum, Prometheus-style.
type Histogram struct {
	vals   []string
	bounds []float64 // sorted upper bounds, +Inf implicit
	counts []atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
	count  atomic.Int64
}

func (h *Histogram) labelValues() []string { return h.vals }

func newHistogram(vals []string, bounds []float64) *Histogram {
	return &Histogram{
		vals:   vals,
		bounds: bounds,
		counts: make([]atomic.Int64, len(bounds)),
	}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	// Bucket counts are stored non-cumulative and summed at write time, so
	// one observation touches exactly one bucket slot.
	i := sort.SearchFloat64s(h.bounds, v)
	if i < len(h.counts) {
		h.counts[i].Add(1)
	}
	h.count.Add(1)
	for {
		old := h.sum.Load()
		cur := math.Float64frombits(old)
		if h.sum.CompareAndSwap(old, math.Float64bits(cur+v)) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Histogram returns the unlabeled histogram named name, creating it on
// first use. nil buckets means DefBuckets. Buckets must be sorted
// ascending; the +Inf bucket is implicit.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	f := r.get(name, help, "histogram", nil, buckets)
	return f.child(nil, func([]string) metric { return newHistogram(nil, f.buckets) }).(*Histogram)
}

// HistogramVec is a histogram family with labeled children sharing one
// bucket layout.
type HistogramVec struct{ f *family }

// HistogramVec returns the histogram family named name with the given label
// schema, creating it on first use. nil buckets means DefBuckets.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if buckets == nil {
		buckets = DefBuckets
	}
	return &HistogramVec{f: r.get(name, help, "histogram", labels, buckets)}
}

// With returns the child histogram for the label values, creating it on
// first use.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.f.child(values, func(vals []string) metric { return newHistogram(vals, v.f.buckets) }).(*Histogram)
}
