package analysis

import (
	"go/ast"
	"go/types"
)

// ObsErrCheckAnalyzer flags silently discarded errors from the APIs
// whose failure modes the fault-injection and degradation layers were
// built to surface: a dropped error here turns a wedged run or a
// truncated telemetry file into silent data corruption.
//
// Checked call sites (by defining package and name):
//
//	amp.NewSystem, (*amp.System).Run / RunContext,
//	(*experiments.Runner).RunPair* / Sweep / SweepContext,
//	telemetry and trace Close / Flush (sinks buffer; only Close
//	reports the final write),
//	the service layer: server Submit/Drain,
//	pairstore Cache Save/Load, and http.Server.Shutdown
//	(a dropped error loses jobs, strands a drain, or forgets
//	computed pairs),
//	the durability layer: wal Log Append/Sync/Close and server
//	Recover (a dropped error here silently voids the crash-safety
//	contract).
//
// A call is flagged when its error result is discarded: the call used
// as a bare statement, deferred, launched with go, or assigned to the
// blank identifier.
var ObsErrCheckAnalyzer = &Analyzer{
	Name: "obserrcheck",
	Doc: "flag discarded errors from amp.NewSystem/Run/RunContext, the experiments runner " +
		"entry points, and telemetry/trace sink Close/Flush",
	Run: runObsErrCheck,
}

// checkedAPI describes one must-check function or method.
type checkedAPI struct {
	pkgSuffix string
	recv      string // named receiver type; "" for package-level, "*" for any receiver
	name      string
}

var checkedAPIs = []checkedAPI{
	{"internal/amp", "", "NewSystem"},
	{"internal/amp", "System", "Run"},
	{"internal/amp", "System", "RunContext"},
	{"internal/experiments", "Runner", "RunPair"},
	{"internal/experiments", "Runner", "RunPairContext"},
	{"internal/experiments", "Runner", "Sweep"},
	{"internal/experiments", "Runner", "SweepContext"},
	{"internal/telemetry", "*", "Close"},
	{"internal/telemetry", "*", "Flush"},
	{"internal/trace", "*", "Close"},
	{"internal/trace", "*", "Flush"},
	// Service layer: a dropped error here loses jobs (submission), strands
	// a drain (Shutdown/Drain), or silently forgets computed pairs
	// (pair store persistence, which the server and sweeps share).
	{"net/http", "Server", "Shutdown"},
	{"internal/server", "Server", "Submit"},
	{"internal/server", "Server", "Drain"},
	{"internal/pairstore", "Cache", "Save"},
	{"internal/pairstore", "Cache", "Load"},
	// Durability layer: a dropped error here breaks the crash-safety
	// contract — an unjournaled ack or an unsynced frame loses
	// acknowledged work on the next crash.
	{"internal/server", "Server", "Recover"},
	{"internal/wal", "Log", "Append"},
	{"internal/wal", "Log", "Sync"},
	{"internal/wal", "Log", "Close"},
	// Fleet layer: a dropped error here boots a node that silently
	// never joined the ring (New/Start) or leaks the heartbeat and
	// replication goroutines past shutdown (Close).
	{"internal/cluster", "", "New"},
	{"internal/cluster", "Node", "Start"},
	{"internal/cluster", "Node", "Close"},
}

func runObsErrCheck(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					if label := matchCheckedCall(pass, call); label != "" {
						pass.Reportf(call.Pos(), "error from %s discarded; a failed call here is a degraded or corrupt result", label)
					}
				}
				return false
			case *ast.DeferStmt:
				if label := matchCheckedCall(pass, n.Call); label != "" {
					pass.Reportf(n.Pos(), "deferred %s discards its error; check it in a deferred closure or at the end of the function", label)
				}
				return false
			case *ast.GoStmt:
				if label := matchCheckedCall(pass, n.Call); label != "" {
					pass.Reportf(n.Pos(), "go %s discards its error", label)
				}
				return false
			case *ast.AssignStmt:
				checkBlankError(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkBlankError flags `x, _ := Run(...)` — the error position
// assigned to the blank identifier.
func checkBlankError(pass *Pass, as *ast.AssignStmt) {
	if len(as.Rhs) != 1 {
		return
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok {
		return
	}
	label := matchCheckedCall(pass, call)
	if label == "" {
		return
	}
	errIdx := errorResultIndex(pass, call)
	if errIdx < 0 || errIdx >= len(as.Lhs) {
		return
	}
	if id, ok := as.Lhs[errIdx].(*ast.Ident); ok && id.Name == "_" {
		pass.Reportf(id.Pos(), "error from %s assigned to blank identifier; handle it or annotate an audited //ampvet:allow obserrcheck",
			label)
	}
}

// matchCheckedCall returns a display label ("amp.NewSystem",
// "System.Run") when the call resolves to a table entry, "" otherwise.
// Only calls that actually return an error are matched.
func matchCheckedCall(pass *Pass, call *ast.CallExpr) string {
	fn := calleeOf(pass.Info, call)
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || errorIndexOf(sig) < 0 {
		return ""
	}
	for i := range checkedAPIs {
		api := &checkedAPIs[i]
		if fn.Name() != api.name || !pkgPathIs(fn.Pkg(), api.pkgSuffix) {
			continue
		}
		switch api.recv {
		case "":
			if sig.Recv() != nil {
				continue
			}
			return fn.Pkg().Name() + "." + fn.Name()
		case "*":
			if sig.Recv() == nil {
				continue
			}
		default:
			if recvTypeName(sig) != api.recv {
				continue
			}
		}
		if r := recvTypeName(sig); r != "" {
			return r + "." + fn.Name()
		}
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return ""
}

// errorResultIndex returns the position of the error result in the
// call's result tuple, or -1.
func errorResultIndex(pass *Pass, call *ast.CallExpr) int {
	fn := calleeOf(pass.Info, call)
	if fn == nil {
		return -1
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return -1
	}
	return errorIndexOf(sig)
}

func errorIndexOf(sig *types.Signature) int {
	res := sig.Results()
	for i := res.Len() - 1; i >= 0; i-- {
		if named, ok := res.At(i).Type().(*types.Named); ok &&
			named.Obj().Pkg() == nil && named.Obj().Name() == "error" {
			return i
		}
	}
	return -1
}

func recvTypeName(sig *types.Signature) string {
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return "" // anonymous interface receiver
}
