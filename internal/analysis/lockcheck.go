package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LockCheckAnalyzer enforces mutex discipline in the concurrent
// subsystems (server, wal, telemetry, experiments — though
// it runs everywhere locks appear):
//
//   - no lock held across a blocking operation: channel send/receive,
//     select without default, range over a channel, a known-blocking
//     standard-library call (file/net I/O, time.Sleep, WaitGroup.Wait),
//     or a call to any function the summary layer proves blocking —
//     including transitively and through interface dispatch;
//   - no inconsistent acquisition order: two locks nested one way in
//     one place and the opposite way in another is a deadlock waiting
//     for the right interleaving.
//
// A lock passed or received by value is go vet's copylocks check,
// which make lint runs first.
//
// sync.(*Cond).Wait is exempt from the blocking rule: it atomically
// releases its mutex, so holding that lock across it is the designed
// protocol. Goroutine bodies launched with `go` are analyzed as their
// own context — the spawner does not block, and does not hold its
// locks there.
//
// The tracking is a linear statement walk, not full control-flow
// analysis: a lock acquired and released in a branch is tracked inside
// the branch; a conditionally-leaked lock is (conservatively) dropped
// at the join.
var LockCheckAnalyzer = &Analyzer{
	Name: "lockcheck",
	Doc:  "flag locks held across blocking operations and inconsistent lock acquisition order",
	Run:  runLockCheck,
}

// heldLock is one acquisition the walker is tracking.
type heldLock struct {
	expr string    // receiver expression, e.g. "s.mu" (scope-local identity)
	id   string    // cross-function identity "pkg.Type.field", "" when local
	pos  token.Pos // acquisition site
}

// lockOrder records first-seen acquisition directions for the
// inconsistent-order check, per package.
type lockOrder map[[2]string]token.Pos

func runLockCheck(pass *Pass) error {
	order := lockOrder{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if fd.Body == nil {
				continue
			}
			w := &lockWalker{pass: pass, order: order}
			w.walkStmts(fd.Body.List, nil)
		}
	}
	return nil
}

// lockWalker tracks held locks through one function body.
type lockWalker struct {
	pass  *Pass
	order lockOrder
}

// walkStmts processes a statement list sequentially, mutating held.
// Branch bodies get a copy: locks they acquire and release are tracked
// inside, locks they leak are dropped at the join.
func (w *lockWalker) walkStmts(stmts []ast.Stmt, held []heldLock) []heldLock {
	for _, stmt := range stmts {
		held = w.walkStmt(stmt, held)
	}
	return held
}

func (w *lockWalker) walkStmt(stmt ast.Stmt, held []heldLock) []heldLock {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if lk, kind := lockOp(w.pass.Info, call); kind == opLock {
				return w.acquire(held, lk)
			} else if kind == opUnlock {
				return release(held, lk.expr)
			}
		}
		w.scanBlocking(s, held)
	case *ast.DeferStmt:
		if _, kind := lockOp(w.pass.Info, s.Call); kind == opUnlock {
			// defer x.Unlock(): the lock stays held to function end —
			// keep tracking it so later blocking ops are reported.
			return held
		}
		w.scanBlocking(s, held)
	case *ast.BlockStmt:
		return w.walkStmts(s.List, held)
	case *ast.IfStmt:
		if s.Init != nil {
			held = w.walkStmt(s.Init, held)
		}
		w.scanBlockingExpr(s.Cond, held)
		w.walkStmts(s.Body.List, append([]heldLock(nil), held...))
		if s.Else != nil {
			w.walkStmt(s.Else, append([]heldLock(nil), held...))
		}
	case *ast.ForStmt:
		if s.Init != nil {
			held = w.walkStmt(s.Init, held)
		}
		w.scanBlockingExpr(s.Cond, held)
		w.walkStmts(s.Body.List, append([]heldLock(nil), held...))
	case *ast.RangeStmt:
		w.scanBlockingExpr(s.X, held)
		if t, ok := w.pass.Info.Types[s.X]; ok && held != nil {
			if _, isChan := t.Type.Underlying().(*types.Chan); isChan {
				w.reportHeld(held, s.Pos(), "range over channel")
			}
		}
		w.walkStmts(s.Body.List, append([]heldLock(nil), held...))
	case *ast.SwitchStmt:
		if s.Init != nil {
			held = w.walkStmt(s.Init, held)
		}
		w.scanBlockingExpr(s.Tag, held)
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CaseClause); ok {
				w.walkStmts(cc.Body, append([]heldLock(nil), held...))
			}
		}
	case *ast.TypeSwitchStmt:
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CaseClause); ok {
				w.walkStmts(cc.Body, append([]heldLock(nil), held...))
			}
		}
	case *ast.SelectStmt:
		hasDefault := false
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault && len(held) > 0 {
			w.reportHeld(held, s.Pos(), "select without default")
		}
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CommClause); ok {
				w.walkStmts(cc.Body, append([]heldLock(nil), held...))
			}
		}
	case *ast.GoStmt:
		// The spawner neither blocks nor holds its locks in the new
		// goroutine; its body is walked as an independent context.
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			w.walkStmts(lit.Body.List, nil)
		}
	case *ast.LabeledStmt:
		return w.walkStmt(s.Stmt, held)
	default:
		w.scanBlocking(stmt, held)
	}
	return held
}

// acquire pushes a lock, checking acquisition order against every lock
// already held.
func (w *lockWalker) acquire(held []heldLock, lk heldLock) []heldLock {
	for _, h := range held {
		if h.id == "" || lk.id == "" || h.id == lk.id {
			continue
		}
		if firstPos, seen := w.order[[2]string{lk.id, h.id}]; seen {
			w.pass.Reportf(lk.pos,
				"locks %s and %s acquired in inconsistent order (opposite nesting at %s)",
				h.id, lk.id, w.pass.Fset.Position(firstPos))
			continue
		}
		if _, seen := w.order[[2]string{h.id, lk.id}]; !seen {
			w.order[[2]string{h.id, lk.id}] = lk.pos
		}
	}
	return append(held, lk)
}

// release pops the lock whose receiver expression matches.
func release(held []heldLock, expr string) []heldLock {
	for i := len(held) - 1; i >= 0; i-- {
		if held[i].expr == expr {
			return append(held[:i:i], held[i+1:]...)
		}
	}
	return held
}

// scanBlocking inspects a statement's expressions for blocking
// operations while locks are held.
func (w *lockWalker) scanBlocking(stmt ast.Stmt, held []heldLock) {
	if len(held) == 0 {
		// Still walk nested function literals: they start with no
		// inherited held set of their own but may lock internally.
		ast.Inspect(stmt, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				w.walkStmts(lit.Body.List, nil)
				return false
			}
			return true
		})
		return
	}
	ast.Inspect(stmt, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// A literal defined while the lock is held usually runs
			// synchronously (callbacks like cache.Do's compute), so it
			// inherits the held set.
			w.walkStmts(n.Body.List, append([]heldLock(nil), held...))
			return false
		case *ast.SendStmt:
			w.reportHeld(held, n.Pos(), "channel send")
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				w.reportHeld(held, n.Pos(), "channel receive")
			}
		case *ast.CallExpr:
			if _, kind := lockOp(w.pass.Info, n); kind != opNone {
				return true
			}
			if why, blocking := w.pass.Sum.BlockingCall(w.pass.Info, n); blocking {
				w.reportHeld(held, n.Pos(), why)
			}
		}
		return true
	})
}

// scanBlockingExpr wraps an expression for scanning.
func (w *lockWalker) scanBlockingExpr(e ast.Expr, held []heldLock) {
	if e == nil {
		return
	}
	w.scanBlocking(&ast.ExprStmt{X: e}, held)
}

// reportHeld reports one blocking operation against every held lock.
func (w *lockWalker) reportHeld(held []heldLock, pos token.Pos, why string) {
	for _, h := range held {
		w.pass.Reportf(pos, "lock %s held across blocking operation: %s (acquired at %s)",
			h.expr, why, w.pass.Fset.Position(h.pos))
	}
}

// lock-operation classification.
type lockOpKind int

const (
	opNone lockOpKind = iota
	opLock
	opUnlock
)

// lockOp classifies a call as a sync.Mutex/RWMutex acquire or release
// and extracts the lock's identities.
func lockOp(info *types.Info, call *ast.CallExpr) (heldLock, lockOpKind) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return heldLock{}, opNone
	}
	callee, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || callee.Pkg() == nil || callee.Pkg().Path() != "sync" {
		return heldLock{}, opNone
	}
	sig, _ := callee.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return heldLock{}, opNone
	}
	rt := sig.Recv().Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	named, ok := rt.(*types.Named)
	if !ok {
		return heldLock{}, opNone
	}
	switch named.Obj().Name() {
	case "Mutex", "RWMutex":
	default:
		return heldLock{}, opNone
	}
	lk := heldLock{expr: types.ExprString(sel.X), id: lockID(info, sel.X), pos: call.Pos()}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		return lk, opLock
	case "Unlock", "RUnlock":
		return lk, opUnlock
	}
	return heldLock{}, opNone
}

// lockID derives a cross-function identity for the lock expression:
// "pkg.Type.field" for a struct-field mutex, "pkg.var" for a
// package-level one, "" for locals (no ordering tracking).
func lockID(info *types.Info, e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		fieldObj, ok := info.Uses[e.Sel].(*types.Var)
		if !ok || !fieldObj.IsField() {
			return ""
		}
		rt := info.Types[e.X].Type
		if p, ok := rt.(*types.Pointer); ok {
			rt = p.Elem()
		}
		if named, ok := rt.(*types.Named); ok && named.Obj().Pkg() != nil {
			return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + fieldObj.Name()
		}
	case *ast.Ident:
		if v, ok := info.Uses[e].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Path() + "." + v.Name()
		}
	}
	return ""
}
