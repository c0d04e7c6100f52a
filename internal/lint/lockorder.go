package lint

import (
	"go/ast"
	"go/types"
)

// LockOrder polices the sharded-registry locking protocol that the
// deadlock-freedom argument in internal/core rests on: direct
// mu.Lock()/mu.TryLock() on a registry-shaped type (a struct carrying a
// `mu` lock beside a `waiters` slice — the waiter-index shards and
// CondSync's unindexed list) is only legal inside functions annotated
// //tm:lockorder-checked, the vetted helpers whose acquisition order has
// been argued through. The one multi-shard acquisition, core.lockShards,
// ranges over StripesOf's output, whose ascending order
// TestStripesOfDedupsAndSorts pins.
//
// No helper holds a shard lock and the unindexed list's at once, so there
// is no order between the two to police.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "restrict direct registry-shard locking to //tm:lockorder-checked helpers",
	Run:  runLockOrder,
}

func runLockOrder(p *Pass) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if groupHasDirective(fn.Doc, DirLockorderChecked) {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if kind := shardLockCall(p, call); kind != "" {
						p.Reportf(call.Pos(),
							"direct %s on a registry shard outside a //tm:lockorder-checked helper: shard acquisition order is load-bearing (see core.lockShards)",
							kind)
					}
				}
				return true
			})
		}
	}
}

// shardLockCall matches calls of the form <base>.mu.Lock() or
// <base>.mu.TryLock() where <base>'s type is registry-shaped, returning
// the method as written ("mu.Lock()"), or "" for any other call.
func shardLockCall(p *Pass, call *ast.CallExpr) string {
	fun, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || (fun.Sel.Name != "Lock" && fun.Sel.Name != "TryLock") {
		return ""
	}
	mu, ok := ast.Unparen(fun.X).(*ast.SelectorExpr)
	if !ok || mu.Sel.Name != "mu" {
		return ""
	}
	tv, ok := p.Info.Types[mu.X]
	if !ok || !isRegistryShaped(tv.Type, p.Pkg) {
		return ""
	}
	return "mu." + fun.Sel.Name + "()"
}

// isRegistryShaped reports whether t (after one deref) is a struct —
// possibly via embedding — with a slice field named `waiters` beside its
// `mu`: the shape of the waiter-index shards and the unindexed-waiter
// list head.
func isRegistryShaped(t types.Type, from *types.Package) bool {
	t = deref(t)
	obj, _, _ := types.LookupFieldOrMethod(t, true, from, "waiters")
	v, ok := obj.(*types.Var)
	if !ok || !v.IsField() {
		return false
	}
	_, isSlice := v.Type().Underlying().(*types.Slice)
	return isSlice
}
