// Package flagged exercises every metriclint diagnostic.
package flagged

import (
	"fmt"
	"strconv"

	"metrics"
)

func register(r *metrics.Registry, dynamic string, id int) {
	r.Counter("linqd_requests_total", "bad prefix")                   // want `metric family "linqd_requests_total" must match linq_\* snake_case`
	r.Counter("linq_CamelCase_total", "bad case")                     // want `metric family "linq_CamelCase_total" must match linq_\* snake_case`
	r.Counter("linq_widgets_total", "bad subsystem")                  // want `metric family "linq_widgets_total" uses unknown subsystem "widgets"`
	r.Counter(dynamic, "dynamic name")                                // want `metric family name must be a compile-time constant`
	r.CounterVec("linq_jobs_total", "bad label", "Backend")           // want `label name "Backend" of "linq_jobs_total" must be lowercase snake_case`
	r.CounterVec("linq_runner_tasks_total", "dynamic label", dynamic) // want `label name for "linq_runner_tasks_total" must be a compile-time constant`

	r.Counter("linq_jobs_dup_total", "first kind")
	r.Gauge("linq_jobs_dup_total", "second kind") // want `metric family "linq_jobs_dup_total" re-registered as gauge \(previously counter`

	r.CounterVec("linq_pool_labeled_total", "first schema", "a")
	r.CounterVec("linq_pool_labeled_total", "second schema", "b") // want `metric family "linq_pool_labeled_total" re-registered with labels \[b\] \(previously \[a\]`

	v := r.CounterVec("linq_mc_shard_total", "cardinality", "shard")
	v.With(fmt.Sprintf("shard-%d", id)).Inc() // want `label value built with fmt\.Sprintf: unbounded label cardinality`
	v.With(strconv.Itoa(id)).Inc()            // want `label value built with strconv\.Itoa: unbounded label cardinality`
}

// instruments is an instrument holder: every field is a metrics handle.
type instruments struct {
	hits    *metrics.CounterVec
	latency *metrics.Histogram
}

func guarded(inst *instruments) {
	if inst != nil { // want `nil check on instrument holder inst`
		inst.hits.With("TILT").Inc()
	}
	if inst == nil { // want `nil check on instrument holder inst`
		return
	}
	inst.latency.Observe(0.5)
}
