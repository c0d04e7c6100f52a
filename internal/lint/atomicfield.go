package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// AtomicField enforces the all-or-nothing rule for atomics — the class of
// race a flag read lock-free on a hot path invites when the fields it
// gates live behind a latch: a struct field accessed through a sync/atomic
// function anywhere in the package must be accessed atomically
// everywhere. One plain read beside an atomic.LoadUint64 is a data race
// the race detector only catches if a test happens to interleave it.
// Copying a value that holds a sync/atomic type is go vet's copylocks
// check, so it is not repeated here.
var AtomicField = &Analyzer{
	Name: "atomicfield",
	Doc:  "a field accessed via sync/atomic anywhere must be accessed atomically everywhere",
	Run:  checkMixedAccess,
}

// isAtomicAddrFn reports whether obj is a sync/atomic function whose first
// argument is the address of the word being operated on.
func isAtomicAddrFn(obj types.Object) bool {
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "sync/atomic" {
		return false
	}
	for _, prefix := range []string{"Load", "Store", "Add", "And", "Or", "Swap", "CompareAndSwap"} {
		if strings.HasPrefix(obj.Name(), prefix) {
			return true
		}
	}
	return false
}

func checkMixedAccess(p *Pass) {
	// Pass 1: fields whose address is taken by a sync/atomic call, and
	// the selector expressions so used (legal sites).
	atomicFields := make(map[types.Object]ast.Expr)
	atomicUse := make(map[*ast.SelectorExpr]bool)
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isAtomicAddrFn(calleeObj(p, call)) || len(call.Args) == 0 {
				return true
			}
			unary, ok := ast.Unparen(call.Args[0]).(*ast.UnaryExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(unary.X).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if s := p.Info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
				atomicFields[s.Obj()] = sel
				atomicUse[sel] = true
			}
			return true
		})
	}
	if len(atomicFields) == 0 {
		return
	}
	// Pass 2: any other selector touching one of those fields is a plain
	// (racy) access. Taking the field's address (&x.f) is exempt: the
	// engine's whole API traffics in word addresses that are then accessed
	// atomically, and the address-of itself reads nothing.
	for _, f := range p.Files {
		inspectWithStack(f, func(n ast.Node, stack []ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || atomicUse[sel] {
				return true
			}
			s := p.Info.Selections[sel]
			if s == nil || s.Kind() != types.FieldVal {
				return true
			}
			if len(stack) > 0 {
				if u, ok := stack[len(stack)-1].(*ast.UnaryExpr); ok && u.Op == token.AND {
					return true
				}
			}
			if first, hit := atomicFields[s.Obj()]; hit {
				p.Reportf(sel.Pos(),
					"plain access to field %s, which is accessed via sync/atomic at %s: mixed atomic/non-atomic access is a data race",
					s.Obj().Name(), p.Fset.Position(first.Pos()))
			}
			return true
		})
	}
}
