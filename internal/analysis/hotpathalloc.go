package analysis

import (
	"go/ast"
	"go/types"
)

// HotPathAllocAnalyzer checks functions annotated //ampvet:hotpath —
// the per-cycle step/observer/telemetry paths whose "0 allocs/op with
// telemetry off" contract BENCH_micro.json records — for
// allocation-forcing constructs:
//
//   - calls into package fmt (Sprintf and friends allocate and box),
//   - boxing a concrete value into an interface (escapes to heap),
//   - closures capturing outer variables (the capture allocates),
//   - append inside a loop (amortized growth, but per-cycle loops
//     must pre-size with make(..., 0, n) outside the loop),
//   - defer inside a loop (each iteration allocates a defer record).
//
// The check is intraprocedural: a hot-path function calling a helper
// that allocates is caught only if the helper is itself annotated.
// Cold sub-paths inside a hot function (wedge handling, run-end
// flushes) carry //ampvet:allow hotpathalloc with the audit reason.
var HotPathAllocAnalyzer = &Analyzer{
	Name: "hotpathalloc",
	Doc: "flag allocation-forcing constructs (fmt calls, interface boxing, capturing closures, " +
		"append/defer in loops) inside functions annotated //ampvet:hotpath",
	Run: runHotPathAlloc,
}

func runHotPathAlloc(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !isHotPath(fd) {
				continue
			}
			checkHotPathBody(pass, fd)
		}
	}
	return nil
}

func checkHotPathBody(pass *Pass, fd *ast.FuncDecl) {
	// loopDepth tracks whether the visited node sits inside a for or
	// range statement of this function (not of a nested closure).
	var walk func(n ast.Node, inLoop bool)
	walk = func(n ast.Node, inLoop bool) {
		if n == nil {
			return
		}
		switch n := n.(type) {
		case *ast.ForStmt:
			walkChildren(n, func(c ast.Node) { walk(c, true) })
			return
		case *ast.RangeStmt:
			walkChildren(n, func(c ast.Node) { walk(c, true) })
			return
		case *ast.DeferStmt:
			if inLoop {
				pass.Reportf(n.Pos(), "defer in a loop allocates a defer record per iteration in hot path %s", fd.Name.Name)
			}
		case *ast.FuncLit:
			if capt := capturedVars(pass, fd, n); len(capt) > 0 {
				pass.Reportf(n.Pos(), "closure captures %s in hot path %s; the capture allocates — hoist the closure or pass state explicitly",
					joinNames(capt), fd.Name.Name)
			}
			// Do not descend: the closure body runs on its own
			// schedule, not per invocation of the hot function.
			return
		case *ast.CallExpr:
			checkHotPathCall(pass, fd, n, inLoop)
		}
		walkChildren(n, func(c ast.Node) { walk(c, inLoop) })
	}
	walk(fd.Body, false)
}

func checkHotPathCall(pass *Pass, fd *ast.FuncDecl, call *ast.CallExpr, inLoop bool) {
	// Builtin append in a loop: amortized growth reallocates.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := pass.Info.Uses[id].(*types.Builtin); ok && b.Name() == "append" && inLoop {
			pass.Reportf(call.Pos(), "append in a loop may reallocate in hot path %s; pre-size the slice with make(..., 0, n) outside the loop",
				fd.Name.Name)
			return
		}
	}
	// Explicit conversion to an interface type: T(x) where T is an
	// interface boxes x.
	if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		if types.IsInterface(tv.Type) {
			if av, ok := pass.Info.Types[call.Args[0]]; ok &&
				!types.IsInterface(av.Type) && !isNil(av) && !pointerShaped(av.Type) {
				pass.Reportf(call.Pos(), "conversion boxes %s into %s in hot path %s",
					av.Type, tv.Type, fd.Name.Name)
			}
		}
		return
	}
	fn := calleeOf(pass.Info, call)
	if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		pass.Reportf(call.Pos(), "fmt.%s allocates (formatting boxes its operands) in hot path %s",
			fn.Name(), fd.Name.Name)
		return
	}
	// Implicit boxing: a concrete argument passed for an interface
	// parameter escapes to the heap.
	sig := callSignature(pass, call)
	if sig == nil {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // forwarding a slice, no boxing here
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(pt) {
			continue
		}
		av, ok := pass.Info.Types[arg]
		if !ok || types.IsInterface(av.Type) || isNil(av) || pointerShaped(av.Type) {
			continue
		}
		pass.Reportf(arg.Pos(), "argument boxes %s into %s in hot path %s",
			av.Type, pt, fd.Name.Name)
	}
}

// callSignature resolves the signature of the called function or
// function value; nil for type conversions and builtins.
func callSignature(pass *Pass, call *ast.CallExpr) *types.Signature {
	tv, ok := pass.Info.Types[call.Fun]
	if !ok {
		return nil
	}
	sig, _ := tv.Type.Underlying().(*types.Signature)
	return sig
}

// capturedVars lists variables the closure references that are
// declared in the enclosing function but outside the closure itself.
func capturedVars(pass *Pass, fd *ast.FuncDecl, lit *ast.FuncLit) []string {
	seen := map[string]bool{}
	var out []string
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pass.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		// Captured iff declared inside the enclosing function but
		// before/outside the literal. Package-level vars aren't
		// captures (no per-call allocation).
		if v.Pos() >= fd.Pos() && v.Pos() <= fd.End() &&
			(v.Pos() < lit.Pos() || v.Pos() > lit.End()) && !seen[v.Name()] {
			seen[v.Name()] = true
			out = append(out, v.Name())
		}
		return true
	})
	return out
}

// pointerShaped reports whether values of t are stored directly in an
// interface's data word — pointers, channels, maps, funcs and unsafe
// pointers do not allocate when converted to an interface.
func pointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return t.Underlying().(*types.Basic).Kind() == types.UnsafePointer
	}
	return false
}

func isNil(tv types.TypeAndValue) bool {
	b, ok := tv.Type.(*types.Basic)
	return ok && b.Kind() == types.UntypedNil
}

func joinNames(names []string) string {
	out := ""
	for i, n := range names {
		if i > 0 {
			out += ", "
		}
		out += n
	}
	return out
}

// walkChildren applies fn to each direct child node of n.
func walkChildren(n ast.Node, fn func(ast.Node)) {
	first := true
	ast.Inspect(n, func(c ast.Node) bool {
		if first {
			first = false
			return true
		}
		if c != nil {
			fn(c)
		}
		return false
	})
}
