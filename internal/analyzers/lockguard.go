package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// LockGuard enforces the repo's locking style (internal/jobs, pool,
// internal/linqhttp): a sync.Mutex/RWMutex protects in-memory state only,
// and anything that can block indefinitely or re-enter the system happens
// outside the critical section. While a lock is statically held it flags:
//
//   - channel sends and receives (select with a default branch is fine —
//     it cannot block)
//   - blocking .Wait() calls (sync.WaitGroup, jobs.Manager, …);
//     sync.Cond.Wait is exempt since it requires the lock by contract
//   - time.Sleep
//   - HTTP round-trips (any net/http call)
//   - Backend method invocations (Compile/Simulate with a ctx first
//     parameter) — a compile can run seconds and must never serialize on a
//     bookkeeping mutex
//   - fsync: (*os.File).Sync, or a Sync() call through an interface that
//     can hold an *os.File — one slow disk would stall every caller of the
//     lock
//
// The tracking is intra-procedural and statement-ordered: Lock() marks the
// receiver held until an Unlock() in the same or a nested block, or to the
// function's end for defer Unlock(). Silence a deliberate case with
// //lint:lockguard-exempt <reason>.
var LockGuard = &analysis.Analyzer{
	Name: "lockguard",
	Doc: "no blocking operations (channel ops, Wait, HTTP, Backend calls, fsync) " +
		"while a sync.Mutex/RWMutex is held",
	Run: runLockGuard,
}

func runLockGuard(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					walkLockBlock(pass, fn.Body.List, map[string]token.Pos{})
				}
			case *ast.FuncLit:
				walkLockBlock(pass, fn.Body.List, map[string]token.Pos{})
			}
			return true
		})
	}
	return nil
}

// mutexCall matches expr as a method call .name() on a sync.Mutex/RWMutex
// valued expression, returning the receiver's printed form as the lock key.
func mutexCall(pass *analysis.Pass, expr ast.Expr, names ...string) (string, bool) {
	call, ok := ast.Unparen(expr).(*ast.CallExpr)
	if !ok {
		return "", false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	match := false
	for _, n := range names {
		if sel.Sel.Name == n {
			match = true
		}
	}
	if !match {
		return "", false
	}
	tv, ok := pass.TypesInfo.Types[sel.X]
	if !ok || !isMutexType(tv.Type) {
		return "", false
	}
	return types.ExprString(sel.X), true
}

func isMutexType(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

// walkLockBlock interprets one statement list in order, tracking which
// mutexes are held. Nested blocks get a copy of the held set: a branch
// that unlocks affects tracking inside the branch only, which matches the
// dominant unlock-before-blocking-op dance in jobs/pool.
func walkLockBlock(pass *analysis.Pass, stmts []ast.Stmt, held map[string]token.Pos) {
	for _, stmt := range stmts {
		walkLockStmt(pass, stmt, held)
	}
}

func copyHeld(held map[string]token.Pos) map[string]token.Pos {
	c := make(map[string]token.Pos, len(held))
	for k, v := range held {
		c[k] = v
	}
	return c
}

func walkLockStmt(pass *analysis.Pass, stmt ast.Stmt, held map[string]token.Pos) {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		if key, ok := mutexCall(pass, s.X, "Lock", "RLock"); ok {
			held[key] = s.Pos()
			return
		}
		if key, ok := mutexCall(pass, s.X, "Unlock", "RUnlock"); ok {
			delete(held, key)
			return
		}
		checkWhileHeld(pass, s, held)
	case *ast.DeferStmt:
		// defer mu.Unlock() keeps the lock held to function end; the
		// walker simply never releases it. Other deferred work runs at
		// return time under unknown lock state: skip it.
		if _, ok := mutexCall(pass, s.Call, "Unlock", "RUnlock"); ok {
			return
		}
	case *ast.BlockStmt:
		walkLockBlock(pass, s.List, copyHeld(held))
	case *ast.IfStmt:
		if s.Init != nil {
			walkLockStmt(pass, s.Init, held)
		}
		checkWhileHeld(pass, s.Cond, held)
		walkLockBlock(pass, s.Body.List, copyHeld(held))
		if s.Else != nil {
			walkLockStmt(pass, s.Else, copyHeld(held))
		}
	case *ast.ForStmt:
		if s.Init != nil {
			walkLockStmt(pass, s.Init, held)
		}
		walkLockBlock(pass, s.Body.List, copyHeld(held))
	case *ast.RangeStmt:
		checkWhileHeld(pass, s.X, held)
		walkLockBlock(pass, s.Body.List, copyHeld(held))
	case *ast.SwitchStmt:
		if s.Init != nil {
			walkLockStmt(pass, s.Init, held)
		}
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CaseClause); ok {
				walkLockBlock(pass, cc.Body, copyHeld(held))
			}
		}
	case *ast.TypeSwitchStmt:
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CaseClause); ok {
				walkLockBlock(pass, cc.Body, copyHeld(held))
			}
		}
	case *ast.SelectStmt:
		hasDefault := false
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		for _, clause := range s.Body.List {
			cc, ok := clause.(*ast.CommClause)
			if !ok {
				continue
			}
			// With a default clause the select cannot block; its comm
			// expressions are non-blocking polls.
			if cc.Comm != nil && !hasDefault {
				checkWhileHeld(pass, cc.Comm, held)
			}
			walkLockBlock(pass, cc.Body, copyHeld(held))
		}
	case *ast.LabeledStmt:
		walkLockStmt(pass, s.Stmt, held)
	case *ast.GoStmt:
		// The goroutine body runs concurrently, outside this critical
		// section; starting it is non-blocking.
	default:
		checkWhileHeld(pass, stmt, held)
	}
}

// checkWhileHeld scans one statement or expression subtree for blocking
// operations, reporting each if any lock is currently held. Function
// literals are skipped (they execute elsewhere); select statements with a
// default clause are non-blocking and their guarded bodies are walked by
// the caller.
func checkWhileHeld(pass *analysis.Pass, node ast.Node, held map[string]token.Pos) {
	if len(held) == 0 || node == nil {
		return
	}
	lock := ""
	for key := range held {
		if lock == "" || key < lock {
			lock = key
		}
	}
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SelectStmt:
			for _, clause := range n.Body.List {
				if cc, ok := clause.(*ast.CommClause); ok && cc.Comm == nil {
					return false // has default: non-blocking poll
				}
			}
			return true
		case *ast.SendStmt:
			pass.Reportf(n.Pos(), "channel send while %s is held: release the lock before communicating", lock)
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				pass.Reportf(n.Pos(), "channel receive while %s is held: release the lock before communicating", lock)
			}
		case *ast.CallExpr:
			checkBlockingCall(pass, n, lock)
		}
		return true
	})
}

func checkBlockingCall(pass *analysis.Pass, call *ast.CallExpr, lock string) {
	if name, ok := analysis.IsPkgFunc(pass.TypesInfo, call, "time"); ok && name == "Sleep" {
		pass.Reportf(call.Pos(), "time.Sleep while %s is held", lock)
		return
	}
	fn := analysis.CalleeObj(pass.TypesInfo, call)
	if fn == nil {
		return
	}
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		if fn.Pkg() != nil && fn.Pkg().Path() == "net/http" {
			pass.Reportf(call.Pos(), "net/http call %s while %s is held: do I/O outside the critical section", fn.Name(), lock)
		}
		return
	}
	recv := sig.Recv().Type()
	switch fn.Name() {
	case "Wait":
		if isNamed(recv, "sync", "Cond") {
			return // Cond.Wait requires the lock by contract
		}
		pass.Reportf(call.Pos(), "blocking %s.Wait while %s is held", recvLabel(recv), lock)
	case "Compile", "Simulate":
		if analysis.SignatureTakesContext(sig) {
			pass.Reportf(call.Pos(), "Backend %s call while %s is held: compiles/simulations can run for seconds; never serialize them on a bookkeeping mutex", fn.Name(), lock)
		}
	case "Sync":
		if isNamed(recv, "os", "File") || types.IsInterface(recv) && sig.Params().Len() == 0 {
			pass.Reportf(call.Pos(), "fsync (%s.Sync) while %s is held: a slow disk would stall every caller of the lock; sync after releasing it", recvLabel(recv), lock)
		}
	case "Do", "Get", "Post", "PostForm", "Head":
		if isNamed(recv, "net/http", "Client") {
			pass.Reportf(call.Pos(), "http.Client.%s while %s is held: do I/O outside the critical section", fn.Name(), lock)
		}
	}
}

func isNamed(t types.Type, pkgPath, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}

func recvLabel(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return t.String()
}
