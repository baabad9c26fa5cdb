package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LockHold enforces critical-section discipline: nothing that can block
// indefinitely runs while a sync.Mutex/RWMutex is held, every Lock has an
// Unlock in the same function, and nested locks are taken in one
// consistent order per package. The daemon and the NFS client both follow
// a strict unlock-before-I/O pattern (drain the state under the lock,
// release, then touch the share); this analyzer is what keeps that pattern
// from eroding one "just this once" at a time.
//
// Blocking operations flagged while a lock is held:
//
//   - channel send, receive, range, and select without a default arm;
//   - time.Sleep and (*sync.WaitGroup).Wait — but not sync.Cond.Wait,
//     which releases the mutex while parked;
//   - calls through smartfam.FS, smartfam.Client or nfs.Client —
//     share I/O rides the network and can stall on a dead peer.
//
// The walk is lexical and per-function: Lock/RLock pushes the lock,
// Unlock/RUnlock pops it, defer Unlock keeps it held to the end of the
// function while satisfying the pairing rule. A branch that terminates
// (return/break/continue/goto/panic) applies its lock effects to a copy of
// the held set, so the early-unlock-and-return idiom does not hide
// violations on the fallthrough path.
var LockHold = &Analyzer{
	Name: "lockhold",
	Doc: "no blocking operation (channel op, sleep, Wait, share I/O) while a " +
		"mutex is held; Lock/Unlock pair per function; one lock order per package",
	Run: runLockHold,
}

// lockHoldBlockingTypes are the named types whose method calls count as
// blocking I/O: the share surface and the NFS client stack. An interface
// receiver is I/O by contract and flagged everywhere, including its own
// package; a concrete client is flagged only from outside its defining
// package — internally its methods are the implementation fabric itself
// (the nfs client's xxxLocked helpers), not calls onto the wire.
var lockHoldBlockingTypes = []struct {
	pkg, name  string
	everywhere bool
}{
	{"mcsd/internal/smartfam", "FS", true},
	{"mcsd/internal/smartfam", "Client", false},
	{"mcsd/internal/nfs", "Client", false},
}

// lockEdge is one observed nested acquisition: first was held when second
// was taken.
type lockEdge struct {
	first, second types.Object
}

func runLockHold(pass *Pass) error {
	edges := make(map[lockEdge]token.Pos)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch n := n.(type) {
			case *ast.FuncDecl:
				body = n.Body
			case *ast.FuncLit:
				body = n.Body
			default:
				return true
			}
			if body == nil {
				return true
			}
			w := &lockWalker{pass: pass, edges: edges,
				acquired: make(map[types.Object]token.Pos),
				released: make(map[types.Object]bool),
			}
			w.stmts(body.List)
			for obj, pos := range w.acquired {
				if !w.released[obj] {
					pass.Reportf(pos,
						"%s is locked but never unlocked in this function; pair every Lock with an Unlock (prefer defer)", obj.Name())
				}
			}
			return true // nested function literals are walked as their own scopes
		})
	}
	return nil
}

// heldLock is one lexically live acquisition.
type heldLock struct {
	obj  types.Object
	name string // receiver expression, for messages
}

type lockWalker struct {
	pass     *Pass
	held     []heldLock
	acquired map[types.Object]token.Pos
	released map[types.Object]bool
	edges    map[lockEdge]token.Pos
}

func (w *lockWalker) stmts(list []ast.Stmt) {
	for _, s := range list {
		w.stmt(s)
	}
}

// branch walks a conditional block. A terminating branch (ends in
// return/branch/panic) gets a copy of the held set: its unlocks are real
// on its own path but must not leak onto the fallthrough path, where the
// lock is still held.
func (w *lockWalker) branch(list []ast.Stmt) {
	if terminates(list) {
		saved := append([]heldLock(nil), w.held...)
		w.stmts(list)
		w.held = saved
		return
	}
	w.stmts(list)
}

func terminates(list []ast.Stmt) bool {
	if len(list) == 0 {
		return false
	}
	switch last := list[len(list)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

func (w *lockWalker) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok && w.lockOp(call, false) {
			return
		}
		w.expr(s.X)
	case *ast.DeferStmt:
		if w.lockOp(s.Call, true) {
			return
		}
		for _, a := range s.Call.Args {
			w.expr(a)
		}
	case *ast.GoStmt:
		// The spawned body runs on its own goroutine (and is walked as its
		// own scope); only the argument expressions evaluate here.
		for _, a := range s.Call.Args {
			w.expr(a)
		}
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.expr(e)
		}
		for _, e := range s.Lhs {
			w.expr(e)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.expr(v)
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.expr(e)
		}
	case *ast.SendStmt:
		w.expr(s.Chan)
		w.expr(s.Value)
		w.blocking(s.Pos(), "channel send")
	case *ast.IncDecStmt:
		w.expr(s.X)
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		w.expr(s.Cond)
		w.branch(s.Body.List)
		switch e := s.Else.(type) {
		case *ast.BlockStmt:
			w.branch(e.List)
		case ast.Stmt:
			w.stmt(e)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		if s.Cond != nil {
			w.expr(s.Cond)
		}
		w.branch(s.Body.List)
		if s.Post != nil {
			w.stmt(s.Post)
		}
	case *ast.RangeStmt:
		w.expr(s.X)
		if isChanType(w.pass.typeOf(s.X)) {
			w.blocking(s.Pos(), "range over a channel")
		}
		w.branch(s.Body.List)
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		if s.Tag != nil {
			w.expr(s.Tag)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.branch(cc.Body)
			}
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.branch(cc.Body)
			}
		}
	case *ast.SelectStmt:
		hasDefault := false
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			w.blocking(s.Pos(), "select without a default arm")
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				w.branch(cc.Body)
			}
		}
	case *ast.BlockStmt:
		w.stmts(s.List)
	case *ast.LabeledStmt:
		w.stmt(s.Stmt)
	}
}

// expr flags blocking operations inside an expression while a lock is
// held. Function literals are skipped: their bodies run later, on their
// own goroutine or call, and are walked as their own scopes.
func (w *lockWalker) expr(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				w.blocking(n.Pos(), "channel receive")
			}
		case *ast.CallExpr:
			w.blockingCall(n)
		}
		return true
	})
}

func (w *lockWalker) blockingCall(call *ast.CallExpr) {
	switch {
	case w.pass.IsPkgFunc(call, "time", "Sleep"):
		w.blocking(call.Pos(), "time.Sleep")
	case isWaitGroupCall(w.pass, call, "Wait"):
		w.blocking(call.Pos(), "WaitGroup.Wait")
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	recv := w.pass.typeOf(sel.X)
	for _, bt := range lockHoldBlockingTypes {
		if !bt.everywhere && w.pass.Pkg.Path() == bt.pkg {
			continue
		}
		if isPkgNamed(recv, bt.pkg, bt.name) {
			w.blocking(call.Pos(), bt.name+"."+sel.Sel.Name+" share I/O")
			return
		}
	}
}

func (w *lockWalker) blocking(pos token.Pos, what string) {
	if len(w.held) == 0 {
		return
	}
	h := w.held[len(w.held)-1]
	w.pass.Reportf(pos,
		"%s while %s is held; release the lock first (shrink the critical section)", what, h.name)
}

// lockOp handles a direct mutex method call statement, updating the held
// set, the pairing record, and the package lock-order table. It reports
// inconsistent nested orderings as they appear.
func (w *lockWalker) lockOp(call *ast.CallExpr, deferred bool) bool {
	fn := w.pass.CalleeFunc(call)
	if fn == nil {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	rt := sig.Recv().Type()
	if !isSyncType(rt, "Mutex") && !isSyncType(rt, "RWMutex") {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj := lockObject(w.pass, sel.X)
	if obj == nil {
		return false
	}
	name := exprKey(sel.X)
	switch fn.Name() {
	case "Lock", "RLock":
		if deferred {
			return false // defer Lock() makes no sense; not a lock op we model
		}
		for _, h := range w.held {
			if h.obj == obj {
				continue
			}
			e := lockEdge{h.obj, obj}
			if rpos, reversed := w.edges[lockEdge{obj, h.obj}]; reversed {
				w.pass.Reportf(call.Pos(),
					"inconsistent lock order: %s then %s here, %s then %s at %s; pick one order package-wide",
					h.obj.Name(), obj.Name(), obj.Name(), h.obj.Name(), w.pass.Fset.Position(rpos))
			}
			if _, seen := w.edges[e]; !seen {
				w.edges[e] = call.Pos()
			}
		}
		w.held = append(w.held, heldLock{obj: obj, name: name})
		if _, seen := w.acquired[obj]; !seen {
			w.acquired[obj] = call.Pos()
		}
		return true
	case "Unlock", "RUnlock":
		w.released[obj] = true
		if !deferred {
			for i := len(w.held) - 1; i >= 0; i-- {
				if w.held[i].obj == obj {
					w.held = append(w.held[:i], w.held[i+1:]...)
					break
				}
			}
		}
		// A deferred unlock keeps the lock lexically held to function end,
		// which is exactly right: blocking calls after `defer mu.Unlock()`
		// still run inside the critical section.
		return true
	}
	return false
}

// lockObject resolves the mutex identity: the object of the rightmost
// identifier of the receiver expression (the field for s.mu, the variable
// for a local mu, the struct for an embedded mutex).
func lockObject(pass *Pass, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return pass.ObjectOf(e)
	case *ast.SelectorExpr:
		return pass.ObjectOf(e.Sel)
	case *ast.IndexExpr:
		return lockObject(pass, e.X)
	case *ast.StarExpr:
		return lockObject(pass, e.X)
	}
	return nil
}
