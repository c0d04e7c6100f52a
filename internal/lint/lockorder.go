package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LockOrder polices the sharded-registry locking protocol that the
// deadlock-freedom argument in internal/core rests on:
//
//  1. Direct mu.Lock()/mu.TryLock() on a registry-shaped type (a struct
//     carrying a `mu` lock beside a `waiters` slice — the waiter-index
//     shards and CondSync's unindexed list) is only legal inside functions
//     annotated
//     //tm:lockorder-checked, the vetted helpers whose acquisition order
//     has been argued through.
//  2. Inside a checked helper, a loop that acquires shard locks by index
//     must ascend: every multi-shard acquisition goes low-to-high, which
//     rules out deadlock between two mutators whose waitsets (or read
//     sets) cover overlapping stripes. Descending unlock loops are fine —
//     release order is irrelevant.
//
// No helper holds a shard lock and the unindexed list's at once, so there
// is no order between the two to police.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "restrict direct registry-shard locking to //tm:lockorder-checked helpers with ascending acquisition",
	Run:  runLockOrder,
}

func runLockOrder(p *Pass) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if !groupHasDirective(fn.Doc, DirLockorderChecked) {
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
				continue
			}
			// Ascending loops: a for-loop that acquires shard locks must
			// not step its index downward.
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				fs, ok := n.(*ast.ForStmt)
				if !ok || !descendingPost(fs.Post) {
					return true
				}
				ast.Inspect(fs.Body, func(m ast.Node) bool {
					call, ok := m.(*ast.CallExpr)
					if !ok {
						return true
					}
					if kind := shardLockCall(p, call); kind != "" {
						p.Reportf(call.Pos(),
							"%s on a registry shard inside a descending index loop: multi-shard acquisition must ascend (deadlock freedom)", kind)
					}
					return true
				})
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

// descendingPost reports whether a for-loop post statement steps its
// index downward (i-- or i -= k).
func descendingPost(post ast.Stmt) bool {
	switch s := post.(type) {
	case *ast.IncDecStmt:
		return s.Tok == token.DEC
	case *ast.AssignStmt:
		return s.Tok == token.SUB_ASSIGN
	}
	return false
}
