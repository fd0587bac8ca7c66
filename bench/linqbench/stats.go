package main

import (
	"bufio"
	"bytes"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/tracing"
)

// quantile returns the q-quantile of vals by linear interpolation between
// order statistics (0 for no values).
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// scrape is one parsed Prometheus text exposition: series value by
// "name{labels}".
type scrape map[string]float64

func parseScrape(b []byte) scrape {
	out := scrape{}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// sum adds every series of the named metric.
func (s scrape) sum(name string) float64 {
	total := 0.0
	for series, v := range s {
		if series == name || strings.HasPrefix(series, name+"{") {
			total += v
		}
	}
	return total
}

// delta is the growth of the named metric from s to later.
func (s scrape) delta(later scrape, name string) float64 {
	return later.sum(name) - s.sum(name)
}

// spanTree indexes one job's stitched trace (client and daemon spans).
type spanTree struct {
	spans    []tracing.SpanData
	children map[string][]int
}

func newSpanTree(spans []tracing.SpanData) *spanTree {
	t := &spanTree{spans: spans, children: make(map[string][]int)}
	for i, s := range spans {
		t.children[s.ParentID] = append(t.children[s.ParentID], i)
	}
	return t
}

// named returns the spans with the given name.
func (t *spanTree) named(name string) []tracing.SpanData {
	var out []tracing.SpanData
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// self is the span's duration minus the union of its children's intervals,
// each clipped to the span: the time the layer spent outside the layers it
// called.
func (t *spanTree) self(s tracing.SpanData) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, ci := range t.children[s.SpanID] {
		c := t.spans[ci]
		a, b := c.Start, c.End
		if a.Before(s.Start) {
			a = s.Start
		}
		if b.After(s.End) {
			b = s.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	covered := time.Duration(0)
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			covered += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		covered += cur.b.Sub(cur.a)
	}
	return s.Duration() - covered
}
