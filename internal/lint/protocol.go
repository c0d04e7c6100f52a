package lint

import (
	"go/ast"
	"go/types"

	"tmsync/internal/lint/flow"
)

// The qualified names of the runtime's protocol participants. Directives
// written in other packages are invisible to a Pass (it sees one package's
// syntax), so the real orec table, clock, and abort primitives are
// recognized by identity here — mirroring how hooknil carries builtinHooks.
const (
	locktablePath = "tmsync/internal/locktable"
	clockPath     = "tmsync/internal/clock"
	tmPath        = "tmsync/internal/tm"
)

// protocol is the shared recognition layer for the flow analyzers: it
// resolves which calls are orec-table operations, clock operations,
// no-return aborts, timestamp extensions, and republishes — combining the
// builtin runtime identities above with the package-local directive
// vocabulary (tm:orec-table, tm:clock-source, tm:noreturn, tm:extend,
// tm:republish, tm:lock-acquire, tm:commit-stamp).
type protocol struct {
	pass *Pass

	orecTypes  map[*types.TypeName]bool // //tm:orec-table types in this package
	clockTypes map[*types.TypeName]bool // //tm:clock-source types
	stampTypes map[*types.TypeName]bool // //tm:commit-stamp types
	noReturnFn map[types.Object]bool    // //tm:noreturn functions
	extendFn   map[types.Object]bool    // //tm:extend functions
	republishF map[types.Object]bool    // //tm:republish functions
	acquireFn  map[types.Object]bool    // //tm:lock-acquire functions
}

func newProtocol(p *Pass) *protocol {
	pr := &protocol{
		pass:       p,
		orecTypes:  make(map[*types.TypeName]bool),
		clockTypes: make(map[*types.TypeName]bool),
		stampTypes: make(map[*types.TypeName]bool),
		noReturnFn: make(map[types.Object]bool),
		extendFn:   make(map[types.Object]bool),
		republishF: make(map[types.Object]bool),
		acquireFn:  make(map[types.Object]bool),
	}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					tn, _ := p.Info.Defs[ts.Name].(*types.TypeName)
					if tn == nil {
						continue
					}
					if groupHasDirective(d.Doc, DirOrecTable) || groupHasDirective(ts.Doc, DirOrecTable) {
						pr.orecTypes[tn] = true
					}
					if groupHasDirective(d.Doc, DirClockSource) || groupHasDirective(ts.Doc, DirClockSource) {
						pr.clockTypes[tn] = true
					}
					if groupHasDirective(d.Doc, DirCommitStamp) || groupHasDirective(ts.Doc, DirCommitStamp) {
						pr.stampTypes[tn] = true
					}
				}
			case *ast.FuncDecl:
				obj := p.Info.Defs[d.Name]
				if obj == nil {
					continue
				}
				if groupHasDirective(d.Doc, DirNoReturn) {
					pr.noReturnFn[obj] = true
				}
				if groupHasDirective(d.Doc, DirExtend) {
					pr.extendFn[obj] = true
				}
				if groupHasDirective(d.Doc, DirRepublish) {
					pr.republishF[obj] = true
				}
				if groupHasDirective(d.Doc, DirLockAcquire) {
					pr.acquireFn[obj] = true
				}
			}
		}
	}
	return pr
}

// methodRecvType resolves the named type (pointer-stripped) a method is
// declared on, or nil for plain functions.
func methodRecvType(obj types.Object) *types.TypeName {
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj()
	}
	// Interface methods carry the interface as receiver; resolve the
	// declaring type through the method's position in its package scope.
	return nil
}

// isBuiltinType reports whether tn is the named type pkgPath.name.
func isBuiltinType(tn *types.TypeName, pkgPath, name string) bool {
	return tn != nil && tn.Pkg() != nil && tn.Pkg().Path() == pkgPath && tn.Name() == name
}

// orecMethod resolves a call to an orec-table method, returning the
// method name ("Get", "Set", "CAS") and true when the receiver is the
// runtime locktable.Table or a //tm:orec-table-annotated type.
func (pr *protocol) orecMethod(call *ast.CallExpr) (string, bool) {
	obj := calleeObj(pr.pass, call)
	fn, ok := obj.(*types.Func)
	if !ok {
		return "", false
	}
	switch fn.Name() {
	case "Get", "Set", "CAS":
	default:
		return "", false
	}
	tn := methodRecvType(fn)
	if isBuiltinType(tn, locktablePath, "Table") || pr.orecTypes[tn] {
		return fn.Name(), true
	}
	return "", false
}

// clockMethod resolves a call to a clock-source method ("Now", "Commit",
// "Bump", "NoteStale"): any method of those names declared in the runtime
// clock package (including on the Source interface) or on a
// //tm:clock-source-annotated type.
func (pr *protocol) clockMethod(call *ast.CallExpr) (string, bool) {
	obj := calleeObj(pr.pass, call)
	fn, ok := obj.(*types.Func)
	if !ok {
		return "", false
	}
	switch fn.Name() {
	case "Now", "Commit", "Bump", "NoteStale":
	default:
		return "", false
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == clockPath {
		return fn.Name(), true
	}
	if pr.clockTypes[methodRecvType(fn)] {
		return fn.Name(), true
	}
	return "", false
}

// isStampType reports whether t is a commit-stamp type: the runtime's
// tm.Stamp or a //tm:commit-stamp-annotated type. Such a value stands for
// a Clock.Commit timestamp across function boundaries.
func (pr *protocol) isStampType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	return isBuiltinType(named.Obj(), tmPath, "Stamp") || pr.stampTypes[named.Obj()]
}

// isNoReturn reports whether a call never returns normally: panic, the
// tm.Tx abort/restart family, or a //tm:noreturn-annotated function.
func (pr *protocol) isNoReturn(call *ast.CallExpr) bool {
	obj := calleeObj(pr.pass, call)
	if obj == nil {
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
			return true
		}
		return false
	}
	if _, ok := obj.(*types.Builtin); ok && obj.Name() == "panic" {
		return true
	}
	if fn, ok := obj.(*types.Func); ok {
		switch fn.Name() {
		case "Abort", "Restart", "RestartTagged", "RestartSoftware":
			if isBuiltinType(methodRecvType(fn), tmPath, "Tx") {
				return true
			}
		}
	}
	return pr.noReturnFn[obj]
}

// isExtendCall reports whether a call invokes a timestamp-extension
// routine: a //tm:extend-annotated function, or a call site carrying the
// directive inline.
func (pr *protocol) isExtendCall(call *ast.CallExpr) bool {
	if obj := calleeObj(pr.pass, call); obj != nil && pr.extendFn[obj] {
		return true
	}
	return pr.pass.DirectiveNear(call.Pos(), DirExtend)
}

// isRepublish reports whether a call republishes an orec word: an orec
// Set, a //tm:republish-annotated helper, or an inline directive.
func (pr *protocol) isRepublish(call *ast.CallExpr) bool {
	if m, ok := pr.orecMethod(call); ok && m == "Set" {
		return true
	}
	if obj := calleeObj(pr.pass, call); obj != nil && pr.republishF[obj] {
		return true
	}
	return pr.pass.DirectiveNear(call.Pos(), DirRepublish)
}

// isAcquire reports whether a call acquires an orec lock: an orec CAS, a
// //tm:lock-acquire-annotated helper, or an inline directive. annotated
// reports whether the site (or callee) carries the directive explicitly.
// Runtime accessors (locktable.Locked, clock reads, ...) sharing a
// directive line are not acquisitions — the directive marks exactly the
// acquiring call.
func (pr *protocol) isAcquire(call *ast.CallExpr) (acquire, annotated bool) {
	if obj := calleeObj(pr.pass, call); obj != nil && pr.acquireFn[obj] {
		return true, true
	}
	if m, ok := pr.orecMethod(call); ok {
		if m != "CAS" {
			return false, false
		}
		return true, pr.pass.DirectiveNear(call.Pos(), DirLockAcquire)
	}
	if pr.pass.DirectiveNear(call.Pos(), DirLockAcquire) {
		if fn, ok := calleeObj(pr.pass, call).(*types.Func); ok && fn.Pkg() != nil {
			switch fn.Pkg().Path() {
			case locktablePath, clockPath:
				return false, false
			}
		}
		return true, true
	}
	return false, false
}

// flowOpts builds the flow options wired to this protocol's no-return
// recognition.
func (pr *protocol) flowOpts() flow.Options {
	return flow.Options{NoReturn: pr.isNoReturn}
}

// mentionsName reports whether n's subtree (excluding nested function
// literals) contains an identifier or field selector with the given name.
func mentionsName(n ast.Node, name string) bool {
	found := false
	ast.Inspect(n, func(x ast.Node) bool {
		if found {
			return false
		}
		switch x := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.Ident:
			if x.Name == name {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// callsIn returns the call expressions in n's subtree, excluding nested
// function literals (their bodies have their own control flow).
func callsIn(n ast.Node) []*ast.CallExpr {
	var calls []*ast.CallExpr
	ast.Inspect(n, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok {
			return false
		}
		if c, ok := x.(*ast.CallExpr); ok {
			calls = append(calls, c)
		}
		return true
	})
	return calls
}

// funcDecls yields every function declaration with a body in the pass's
// files.
func funcDecls(p *Pass) []*ast.FuncDecl {
	var fds []*ast.FuncDecl
	for _, f := range p.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				fds = append(fds, fd)
			}
		}
	}
	return fds
}

// underDeferOrGo reports whether any ancestor in stack is a defer or go
// statement or a function literal — positions where a call does not
// execute as part of the enclosing function's straight-line flow.
func underDeferOrGo(stack []ast.Node) bool {
	for _, a := range stack {
		switch a.(type) {
		case *ast.DeferStmt, *ast.GoStmt, *ast.FuncLit:
			return true
		}
	}
	return false
}
