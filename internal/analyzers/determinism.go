package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// Determinism forbids sources of run-to-run nondeterminism inside declared
// deterministic packages. The repo's headline guarantee — bit-identical
// fidelity estimates for any worker count, byte-identical compiles across
// local and remote backends — dies the moment wall-clock time, process-wide
// RNG state, scheduler-dependent select choices, or map iteration order
// leaks into a result, so those constructs are banned at the source level:
//
//   - time.Now / time.Since / time.Until
//   - package-level math/rand state (rand.Intn, rand.Float64, rand.Seed, …);
//     seeded local generators via rand.New(rand.NewSource(seed)) stay legal
//   - select statements with two or more ready communication cases
//   - ranging over a map while accumulating into order-sensitive state
//     (slice appends, float or string accumulation, channel sends, writes
//     to an outer writer)
//
// A finding that is genuinely harmless (e.g. wall-clock fed only to a
// metrics observer) is silenced with //lint:deterministic-exempt <reason>.
var Determinism = &analysis.Analyzer{
	Name:            "determinism",
	ExemptDirective: "deterministic-exempt",
	Doc: "forbid wall-clock, global RNG, racy select, and ordered map iteration " +
		"in declared deterministic packages",
	Run: runDeterminism,
}

// randConstructors are the math/rand package functions that build local,
// seedable state instead of touching the global source.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func runDeterminism(pass *analysis.Pass) error {
	if !isDeterministicPackage(pass) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkDeterminismCall(pass, n)
			case *ast.SelectStmt:
				checkSelect(pass, n)
			case *ast.RangeStmt:
				checkMapRange(pass, n)
			}
			return true
		})
	}
	return nil
}

func checkDeterminismCall(pass *analysis.Pass, call *ast.CallExpr) {
	if name, ok := analysis.IsPkgFunc(pass.TypesInfo, call, "time"); ok {
		switch name {
		case "Now", "Since", "Until":
			pass.Reportf(call.Pos(), "time.%s in a deterministic package: wall-clock must not influence results (exempt observer-only timing with //lint:deterministic-exempt <reason>)", name)
		}
		return
	}
	for _, randPkg := range []string{"math/rand", "math/rand/v2"} {
		if name, ok := analysis.IsPkgFunc(pass.TypesInfo, call, randPkg); ok {
			if !randConstructors[name] {
				pass.Reportf(call.Pos(), "global %s.%s shares process-wide RNG state: use a seeded *rand.Rand (rand.New(rand.NewSource(seed)))", randPkg, name)
			}
			return
		}
	}
}

func checkSelect(pass *analysis.Pass, sel *ast.SelectStmt) {
	ready := 0
	for _, clause := range sel.Body.List {
		if cc, ok := clause.(*ast.CommClause); ok && cc.Comm != nil {
			ready++
		}
	}
	if ready >= 2 {
		pass.Reportf(sel.Pos(), "select with %d communication cases picks one at random when several are ready: results must not depend on the winner in a deterministic package", ready)
	}
}

// checkMapRange flags ranging over a map when the loop body feeds
// order-sensitive state: appends to an outer slice, float or string
// compound accumulation into an outer variable (float addition is not
// associative; string append is ordered), channel sends, or writes to an
// outer writer (the printed lines come out in map order).
func checkMapRange(pass *analysis.Pass, rng *ast.RangeStmt) {
	tv, ok := pass.TypesInfo.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	body := rng.Body
	var why string
	ast.Inspect(body, func(n ast.Node) bool {
		if why != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			why = "a channel send"
		case *ast.CallExpr:
			if w := outerWrite(pass, n, body); w != "" {
				why = "a write to " + w
			}
		case *ast.AssignStmt:
			switch n.Tok {
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
				for _, lhs := range n.Lhs {
					if isOrderSensitiveAccum(pass, lhs, body) {
						why = "compound accumulation into " + types.ExprString(lhs)
					}
				}
			case token.ASSIGN, token.DEFINE:
				for _, rhs := range n.Rhs {
					call, ok := rhs.(*ast.CallExpr)
					if !ok || !isBuiltinAppend(pass, call) || appendsOnlyRangeKey(pass, call, rng) {
						continue
					}
					for _, lhs := range n.Lhs {
						if declaredOutside(pass, lhs, body) {
							why = "append into " + types.ExprString(lhs)
						}
					}
				}
			}
		}
		return true
	})
	if why != "" {
		pass.Reportf(rng.Pos(), "map iteration order is randomized but the loop body performs %s: iterate sorted keys instead", why)
	}
}

// writerTypes are the writer types whose Write* methods outerWrite tracks.
var writerTypes = map[string]bool{
	"io.Writer":       true,
	"strings.Builder": true, "*strings.Builder": true,
	"bytes.Buffer": true, "*bytes.Buffer": true,
}

// outerWrite returns the writer a call writes into — fmt.Fprint, Fprintf or
// Fprintln, or Write, WriteString or WriteByte on an io.Writer,
// strings.Builder or bytes.Buffer — when that writer is declared outside
// body, and "" otherwise.
func outerWrite(pass *analysis.Pass, call *ast.CallExpr, body *ast.BlockStmt) string {
	var w ast.Expr
	if name, ok := analysis.IsPkgFunc(pass.TypesInfo, call, "fmt"); ok {
		if (name == "Fprint" || name == "Fprintf" || name == "Fprintln") && len(call.Args) > 0 {
			w = call.Args[0]
		}
	} else if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		switch sel.Sel.Name {
		case "Write", "WriteString", "WriteByte":
			if t := pass.TypesInfo.TypeOf(sel.X); t != nil && writerTypes[types.TypeString(t, nil)] {
				w = sel.X
			}
		}
	}
	if u, ok := ast.Unparen(w).(*ast.UnaryExpr); ok && u.Op == token.AND {
		w = u.X
	}
	if w == nil || !declaredOutside(pass, w, body) {
		return ""
	}
	return types.ExprString(w)
}

// isOrderSensitiveAccum reports whether lhs is an outer-declared variable
// of a type where compound accumulation depends on operand order (floats,
// complex numbers, strings).
func isOrderSensitiveAccum(pass *analysis.Pass, lhs ast.Expr, body *ast.BlockStmt) bool {
	tv, ok := pass.TypesInfo.Types[lhs]
	if !ok {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	if !ok || b.Info()&(types.IsFloat|types.IsComplex|types.IsString) == 0 {
		return false
	}
	return declaredOutside(pass, lhs, body)
}

// declaredOutside reports whether expr refers to storage declared outside
// the block: a selector (field or package var) or an identifier whose
// object is declared before/after the block's extent.
func declaredOutside(pass *analysis.Pass, expr ast.Expr, body *ast.BlockStmt) bool {
	switch e := ast.Unparen(expr).(type) {
	case *ast.IndexExpr:
		// Indexed writes hit one bucket per iteration; with distinct keys
		// (the common m[k] += v shape) order cannot matter, so don't flag.
		return false
	case *ast.SelectorExpr, *ast.StarExpr:
		return true
	case *ast.Ident:
		obj := pass.TypesInfo.Uses[e]
		if obj == nil {
			obj = pass.TypesInfo.Defs[e]
		}
		if obj == nil {
			return false
		}
		return obj.Pos() < body.Pos() || obj.Pos() > body.End()
	}
	return false
}

// appendsOnlyRangeKey reports whether every appended element is exactly the
// range's key variable — the collect-keys-then-sort idiom, which is the
// recommended fix, not a violation.
func appendsOnlyRangeKey(pass *analysis.Pass, call *ast.CallExpr, rng *ast.RangeStmt) bool {
	keyID, ok := rng.Key.(*ast.Ident)
	if !ok || len(call.Args) < 2 {
		return false
	}
	keyObj := pass.TypesInfo.Defs[keyID]
	if keyObj == nil {
		keyObj = pass.TypesInfo.Uses[keyID]
	}
	if keyObj == nil {
		return false
	}
	for _, arg := range call.Args[1:] {
		id, ok := ast.Unparen(arg).(*ast.Ident)
		if !ok || pass.TypesInfo.Uses[id] != keyObj {
			return false
		}
	}
	return true
}

func isBuiltinAppend(pass *analysis.Pass, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	obj, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok && obj.Name() == "append"
}
