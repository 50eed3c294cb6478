package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"hyperq/internal/lint/analysis"
)

// LockIO reports blocking calls made while a mutex acquired in the same
// function is still held.
//
// The pool waiter queue, the cache shards, and the session registry all sit
// on hot request paths guarded by sync.Mutex/RWMutex. A network dial, a
// backend Exec, or a time.Sleep under one of those locks turns a single
// slow backend into gateway-wide latency collapse: every other request
// serializes behind the sleeper. The analyzer walks each function in source
// order tracking which mutexes are locked, and flags calls from a blocking
// denylist (Executor.Exec*, net.Conn reads/writes, cwp/tdp/net dials,
// time.Sleep, pool Acquire) made before the matching Unlock. Deferred
// unlocks do not release for the purposes of this walk — the lock is held
// until return, so everything after the Lock is a critical section.
var LockIO = &analysis.Analyzer{
	Name: "lockio",
	Doc:  "checks that no blocking network/sleep call happens while a sync.Mutex or RWMutex is held",
	Run:  runLockIO,
}

func runLockIO(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, fn := range functionsIn(file) {
			checkLockedRegions(pass, fn.body)
		}
	}
	return nil
}

func checkLockedRegions(pass *analysis.Pass, body *ast.BlockStmt) {
	held := make(map[string]token.Pos)
	inspectSkipFuncLits(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.DeferStmt); ok {
			// Deferred calls run at return; a deferred Unlock does not end
			// the critical section mid-function, and deferred cleanup I/O is
			// out of scope for this linear walk.
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := analysis.CalleeFunc(pass.Info, call)
		if callee == nil {
			return true
		}
		if key, op, ok := mutexOp(pass.Info, call, callee); ok {
			switch op {
			case "Lock", "RLock":
				held[key] = call.Pos()
			case "Unlock", "RUnlock":
				delete(held, key)
			}
			return true
		}
		if len(held) == 0 {
			return true
		}
		if desc, blocking := blockingCall(callee); blocking {
			key, pos := oneHeld(held)
			pass.Reportf(call.Pos(),
				"blocking call %s while mutex %q is held (locked at %s); release the lock before network I/O or sleeping",
				desc, key, pass.Fset.Position(pos))
		}
		return true
	})
}

// mutexOp recognizes Lock/RLock/Unlock/RUnlock calls on sync.Mutex and
// sync.RWMutex (including promoted methods of embedded mutexes) and returns
// the receiver expression as the tracking key.
func mutexOp(info *types.Info, call *ast.CallExpr, callee *types.Func) (key, op string, ok bool) {
	switch callee.Name() {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", "", false
	}
	if analysis.FuncPkgName(callee) != "sync" || !analysis.IsMethod(callee) {
		return "", "", false
	}
	sel, selOK := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !selOK {
		return "", "", false
	}
	return types.ExprString(sel.X), callee.Name(), true
}

// blockingCall reports whether the callee is on the blocking denylist, and
// if so how to describe it.
func blockingCall(callee *types.Func) (string, bool) {
	pkg := analysis.FuncPkgName(callee)
	name := callee.Name()
	if !analysis.IsMethod(callee) {
		switch {
		case pkg == "time" && name == "Sleep":
			return "time.Sleep", true
		case blockingPkg(pkg) && len(name) >= 4 && name[:4] == "Dial":
			return pkg + "." + name, true
		}
		return "", false
	}
	if !blockingPkg(pkg) {
		return "", false
	}
	switch name {
	case "Exec", "ExecContext", "Connect", "ConnectContext",
		"Close", "Read", "Write", "Acquire", "Request":
		return "(" + pkg + ") ." + name, true
	}
	return "", false
}

// blockingPkg lists the packages whose calls can touch the network: the
// ODBC stack, the wire clients, and the standard net package.
func blockingPkg(pkg string) bool {
	switch pkg {
	case "odbc", "pool", "cwp", "tdp", "net":
		return true
	}
	return false
}

// oneHeld returns an arbitrary (deterministically smallest-key) held lock
// for the diagnostic.
func oneHeld(held map[string]token.Pos) (string, token.Pos) {
	var bestKey string
	var bestPos token.Pos
	for k, p := range held {
		if bestKey == "" || k < bestKey {
			bestKey, bestPos = k, p
		}
	}
	return bestKey, bestPos
}
