package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// AtomicField enforces the all-or-nothing rule for atomics — the class of
// race a flag read lock-free on a hot path invites when the fields it
// gates live behind a latch (Waiter.asleep beside the shard locks,
// Thread.HWActive beside the serial lock):
//
//  1. A struct field accessed through a sync/atomic function anywhere in
//     the package must be accessed atomically everywhere: one plain read
//     beside an atomic.LoadUint64 is a data race the race detector only
//     catches if a test happens to interleave it.
//  2. A value whose type (transitively, through non-pointer fields and
//     arrays) contains a sync/atomic type must not be copied: the copy
//     forks the atomic's state and silently decouples readers from
//     writers. Composite literals are initialization, not copies, and
//     stay legal.
var AtomicField = &Analyzer{
	Name: "atomicfield",
	Doc:  "atomically-accessed fields must be atomic everywhere; structs containing atomics must not be copied",
	Run:  runAtomicField,
}

func runAtomicField(p *Pass) {
	checkMixedAccess(p)
	checkAtomicCopies(p)
}

// atomicFns is the set of sync/atomic functions whose first argument is
// the address of the word being operated on.
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

// containsAtomic reports whether t transitively holds a sync/atomic value
// by value (pointers and maps break the chain: copying them aliases, not
// forks, the atomic).
func containsAtomic(t types.Type, seen map[types.Type]bool) bool {
	if seen[t] {
		return false
	}
	seen[t] = true
	if named, ok := t.(*types.Named); ok {
		if pkg := named.Obj().Pkg(); pkg != nil && pkg.Path() == "sync/atomic" {
			return true
		}
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if containsAtomic(u.Field(i).Type(), seen) {
				return true
			}
		}
	case *types.Array:
		return containsAtomic(u.Elem(), seen)
	}
	return false
}

func (p *Pass) atomicBearing(t types.Type) bool {
	if t == nil {
		return false
	}
	return containsAtomic(t, make(map[types.Type]bool))
}

// copyExempt reports expressions whose evaluation is initialization
// rather than a copy of live state: composite literals and conversions of
// them.
func copyExempt(e ast.Expr) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.CallExpr:
		// A conversion T(CompositeLit) — rare, but still initialization.
		if len(x.Args) == 1 {
			return copyExempt(x.Args[0])
		}
	}
	return false
}

func checkAtomicCopies(p *Pass) {
	report := func(pos ast.Node, how string, t types.Type) {
		p.Reportf(pos.Pos(), "%s copies %s, which contains sync/atomic state: the copy decouples readers from writers (use a pointer)", how, types.TypeString(t, types.RelativeTo(p.Pkg)))
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.AssignStmt:
				for _, rhs := range s.Rhs {
					tv, ok := p.Info.Types[rhs]
					if ok && p.atomicBearing(tv.Type) && !copyExempt(rhs) {
						report(rhs, "assignment", tv.Type)
					}
				}
			case *ast.ValueSpec:
				for _, v := range s.Values {
					tv, ok := p.Info.Types[v]
					if ok && p.atomicBearing(tv.Type) && !copyExempt(v) {
						report(v, "declaration", tv.Type)
					}
				}
			case *ast.CallExpr:
				if isAtomicAddrFn(calleeObj(p, s)) {
					return true
				}
				// unsafe.Offsetof/Sizeof/Alignof operands are not
				// evaluated; nothing is copied at run time.
				if obj := calleeObj(p, s); obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "unsafe" {
					return true
				}
				for _, arg := range s.Args {
					tv, ok := p.Info.Types[arg]
					if ok && p.atomicBearing(tv.Type) && !copyExempt(arg) {
						report(arg, "call argument", tv.Type)
					}
				}
			case *ast.RangeStmt:
				if s.Value == nil {
					return true
				}
				// In a `for _, v := range` the value is a defining
				// identifier, recorded in Defs rather than Types.
				var vt types.Type
				if tv, ok := p.Info.Types[s.Value]; ok {
					vt = tv.Type
				} else if id, ok := s.Value.(*ast.Ident); ok {
					if obj := p.Info.Defs[id]; obj != nil {
						vt = obj.Type()
					}
				}
				if p.atomicBearing(vt) {
					report(s.Value, "range clause", vt)
				}
			case *ast.FuncDecl:
				checkFuncSig(p, s.Recv, s.Type, report)
			case *ast.FuncLit:
				checkFuncSig(p, nil, s.Type, report)
			}
			return true
		})
	}
}

func checkFuncSig(p *Pass, recv *ast.FieldList, ft *ast.FuncType, report func(ast.Node, string, types.Type)) {
	fields := func(fl *ast.FieldList, what string) {
		if fl == nil {
			return
		}
		for _, fld := range fl.List {
			tv, ok := p.Info.Types[fld.Type]
			if ok && p.atomicBearing(tv.Type) {
				report(fld.Type, what, tv.Type)
			}
		}
	}
	fields(recv, "value receiver")
	fields(ft.Params, "by-value parameter")
	fields(ft.Results, "by-value result")
}
