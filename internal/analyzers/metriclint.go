package analyzers

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"regexp"
	"strings"

	"repro/internal/analysis"
)

// MetricLint keeps the telemetry surface queryable: every family created on
// a metrics.Registry must have a constant name matching linq_* snake_case,
// constant lowercase label names, and one schema per name (re-registering a
// name as a different kind or label set panics at runtime — here it fails
// the build instead). Label values resolved through Vec.With must come from
// a fixed vocabulary: formatting calls (fmt.Sprintf, strconv.Itoa, …)
// inline in With arguments create unbounded label cardinality and are
// rejected.
//
// Family names are further namespaced by subsystem: the token right after
// the linq_ prefix must come from the fixed vocabulary in
// metricSubsystems, so linq_trace_* and linq_events_* families land next
// to their jobs/journal/pool siblings instead of minting ad-hoc prefixes
// that dashboards then have to chase.
//
// Every instrumented component books into a registry (a private one when
// the caller passes none), so there is no telemetry-off path: comparing a
// pointer to an instrument holder — a struct whose fields are all metrics
// handles — with nil is rejected. Nil checks on a *metrics.Registry stay
// legal; that is where a constructor picks its private registry.
//
// Silence a deliberate deviation with //lint:metriclint-exempt <reason>.
var MetricLint = &analysis.Analyzer{
	Name: "metriclint",
	Doc: "metric families must be linq_<subsystem>_* snake_case constants with " +
		"constant label schemas and bounded label values",
	Run: runMetricLint,
}

var (
	metricNameRe = regexp.MustCompile(`^linq(_[a-z0-9]+)+$`)
	labelNameRe  = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)
)

// metricSubsystems is the closed vocabulary of family namespaces: the
// token between linq_ and the rest of the name. Adding a subsystem here is
// a deliberate, reviewed act — it is the unit dashboards and alerts group
// by.
var metricSubsystems = map[string]bool{
	"compile":  true, // compile cache + latency (backend hot path)
	"compiles": true, // legacy spelling of the compile counter
	"events":   true, // /v1/events SSE bus
	"fleet":    true, // fleet supervisor + telemetry-driven Pool routing
	"http":     true, // linqhttp request metrics
	"job":      true, // per-job latency histograms
	"jobs":     true, // jobs.Manager lifecycle counters/gauges
	"journal":  true, // write-ahead journal
	"mc":       true, // Monte-Carlo sharding
	"pass":     true, // per-pass compile latency
	"pool":     true, // client-side PoolBackend
	"runner":   true, // experiment runner
	"simulate": true, // simulation latency
	"tenant":   true, // multi-tenant auth/quota/throttle
	"trace":    true, // tracing span store
}

// familyMethods maps Registry method name → index of the first label-name
// argument (-1: no labels).
var familyMethods = map[string]int{
	"Counter": -1, "Gauge": -1, "Histogram": -1,
	"CounterVec": 2, "GaugeVec": 2, "HistogramVec": 3,
}

// formatterFuncs are the package-level formatting helpers that, inlined
// into a label value, signal unbounded cardinality.
var formatterFuncs = map[string][]string{
	"fmt":     {"Sprintf", "Sprint", "Sprintln"},
	"strconv": {"Itoa", "FormatInt", "FormatUint", "FormatFloat", "Quote"},
}

// registration remembers where a family name was first registered and with
// what schema.
type registration struct {
	kind   string
	labels string
	pos    token.Pos
}

func runMetricLint(pass *analysis.Pass) error {
	seen := map[string]registration{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if bin, ok := n.(*ast.BinaryExpr); ok && (bin.Op == token.EQL || bin.Op == token.NEQ) {
				checkHolderNil(pass, bin)
				return true
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if name, ok := metricsMethod(pass, call, "Registry"); ok {
				if labelIdx, isFamily := familyMethods[name]; isFamily {
					checkFamily(pass, call, name, labelIdx, seen)
				}
				return true
			}
			if name, ok := metricsMethod(pass, call, "CounterVec", "GaugeVec", "HistogramVec"); ok && name == "With" {
				checkLabelValues(pass, call)
			}
			return true
		})
	}
	return nil
}

// metricsMethod reports whether call invokes a method on one of the named
// types defined in a package called "metrics", returning the method name.
func metricsMethod(pass *analysis.Pass, call *ast.CallExpr, recvTypes ...string) (string, bool) {
	fn := analysis.CalleeObj(pass.TypesInfo, call)
	if fn == nil {
		return "", false
	}
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		return "", false
	}
	if recv, ok := metricsType(sig.Recv().Type()); ok {
		for _, want := range recvTypes {
			if recv == want {
				return fn.Name(), true
			}
		}
	}
	return "", false
}

// metricsType returns the name of t, or of what t points to, when that is
// a named type of a package called "metrics".
func metricsType(t types.Type) (string, bool) {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Name() != "metrics" {
		return "", false
	}
	return named.Obj().Name(), true
}

// checkHolderNil reports x == nil and x != nil when x points to an
// instrument holder: a struct whose fields are all metrics handles (any
// metrics type but the Registry).
func checkHolderNil(pass *analysis.Pass, bin *ast.BinaryExpr) {
	x := bin.X
	if isNil(x) {
		x = bin.Y
	} else if !isNil(bin.Y) {
		return
	}
	ptr, ok := pass.TypesInfo.TypeOf(x).(*types.Pointer)
	if !ok {
		return
	}
	st, ok := ptr.Elem().Underlying().(*types.Struct)
	if !ok || st.NumFields() == 0 {
		return
	}
	for i := 0; i < st.NumFields(); i++ {
		if name, ok := metricsType(st.Field(i).Type()); !ok || name == "Registry" {
			return
		}
	}
	pass.Reportf(bin.Pos(), "nil check on instrument holder %s: a component given no registry books into a private one, so its instruments are never nil", types.ExprString(x))
}

// constString returns the compile-time string value of expr, if any.
func constString(pass *analysis.Pass, expr ast.Expr) (string, bool) {
	tv, ok := pass.TypesInfo.Types[expr]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

func checkFamily(pass *analysis.Pass, call *ast.CallExpr, kind string, labelIdx int, seen map[string]registration) {
	if len(call.Args) == 0 {
		return
	}
	name, ok := constString(pass, call.Args[0])
	if !ok {
		pass.Reportf(call.Args[0].Pos(), "metric family name must be a compile-time constant, got %s", types.ExprString(call.Args[0]))
		return
	}
	if !metricNameRe.MatchString(name) {
		pass.Reportf(call.Args[0].Pos(), "metric family %q must match linq_* snake_case (%s)", name, metricNameRe)
	} else if sub := strings.SplitN(name, "_", 3)[1]; !metricSubsystems[sub] {
		pass.Reportf(call.Args[0].Pos(), "metric family %q uses unknown subsystem %q; use one of the fixed vocabulary (see metricSubsystems) or extend it deliberately", name, sub)
	}

	var labels []string
	if labelIdx >= 0 && len(call.Args) > labelIdx {
		if call.Ellipsis.IsValid() {
			// labels... spread: schema not statically known; leave
			// duplicate detection to the runtime panic.
			return
		}
		for _, arg := range call.Args[labelIdx:] {
			lv, ok := constString(pass, arg)
			if !ok {
				pass.Reportf(arg.Pos(), "label name for %q must be a compile-time constant, got %s", name, types.ExprString(arg))
				return
			}
			if !labelNameRe.MatchString(lv) {
				pass.Reportf(arg.Pos(), "label name %q of %q must be lowercase snake_case", lv, name)
			}
			labels = append(labels, lv)
		}
	}

	schema := strings.Join(labels, ",")
	if prev, dup := seen[name]; dup {
		if prev.kind != kind {
			pass.Reportf(call.Pos(), "metric family %q re-registered as %s (previously %s at %s)", name, kindOf(kind), kindOf(prev.kind), pass.Fset.Position(prev.pos))
		} else if prev.labels != schema {
			pass.Reportf(call.Pos(), "metric family %q re-registered with labels [%s] (previously [%s] at %s)", name, schema, prev.labels, pass.Fset.Position(prev.pos))
		}
		return
	}
	seen[name] = registration{kind: kind, labels: schema, pos: call.Pos()}
}

// kindOf maps a Registry method name to the instrument kind it creates.
func kindOf(method string) string {
	return strings.ToLower(strings.TrimSuffix(method, "Vec"))
}

func checkLabelValues(pass *analysis.Pass, call *ast.CallExpr) {
	for _, arg := range call.Args {
		ast.Inspect(arg, func(n ast.Node) bool {
			inner, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			for pkg, names := range formatterFuncs {
				if name, ok := analysis.IsPkgFunc(pass.TypesInfo, inner, pkg); ok {
					for _, banned := range names {
						if name == banned {
							pass.Reportf(inner.Pos(), "label value built with %s: unbounded label cardinality; use a fixed label vocabulary", fmt.Sprintf("%s.%s", pkg, name))
						}
					}
				}
			}
			return true
		})
	}
}
