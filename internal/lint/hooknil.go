package lint

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
)

// HookNil verifies that every call through a nilable hook field is
// dominated by a nil check. The runtime's System hooks (PostCommit,
// Tracer, WakeLatency) are nil outside the configurations that install
// them, and every new call site is a latent nil-dereference panic on the
// commit path — the bug shape PR 7's Tracer plumbing had to hand-audit. Hook fields are recognized two ways: the built-in table of
// the runtime's own hooks below, and any struct field annotated //tm:hook
// in its doc comment.
//
// Accepted guard shapes (the ones the driver actually uses):
//
//	if x.Hook != nil { x.Hook(...) }
//	if fn := x.Hook; fn != nil { fn(...) }
//	fn := x.Hook
//	if fn == nil { return }
//	fn(...)
var HookNil = &Analyzer{
	Name: "hooknil",
	Doc:  "calls through nilable hook fields (//tm:hook and the System hooks) must be nil-guarded",
	Run:  runHookNil,
}

// builtinHooks names the runtime's hook fields by declaring package,
// struct, and field — so call sites in *other* packages, where the
// declaring file's //tm:hook comments are not in view, are still checked.
var builtinHooks = map[string]map[string]bool{
	"tmsync/internal/tm.System": {
		"PostCommit":  true,
		"Tracer":      true,
		"WakeLatency": true,
	},
}

func runHookNil(p *Pass) {
	annotated := collectAnnotatedHooks(p)

	// aliasOf maps a local object to the hook selector expression it was
	// assigned from (fn := x.Hook).
	aliasOf := make(map[types.Object]*ast.SelectorExpr)
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			if len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, rhs := range as.Rhs {
				sel, ok := ast.Unparen(rhs).(*ast.SelectorExpr)
				if !ok || !isHookField(p, annotated, sel) {
					continue
				}
				if id, ok := as.Lhs[i].(*ast.Ident); ok {
					if obj := p.Info.Defs[id]; obj != nil {
						aliasOf[obj] = sel
					} else if obj := p.Info.Uses[id]; obj != nil {
						aliasOf[obj] = sel
					}
				}
			}
			return true
		})
	}

	for _, f := range p.Files {
		inspectWithStack(f, func(n ast.Node, stack []ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			hookExpr, fieldName := hookExprOfCall(p, annotated, aliasOf, call)
			if hookExpr == nil {
				return true
			}
			if nilGuarded(p, hookExpr, call, stack) {
				return true
			}
			p.Reportf(call.Pos(),
				"call through nilable hook %s is not dominated by a nil check: the hook is nil outside configurations that install it", fieldName)
			return true
		})
	}
}

// collectAnnotatedHooks gathers the field objects declared with //tm:hook
// in this package.
func collectAnnotatedHooks(p *Pass) map[types.Object]bool {
	hooks := make(map[types.Object]bool)
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, fld := range st.Fields.List {
				if !groupHasDirective(fld.Doc, DirHook) && !groupHasDirective(fld.Comment, DirHook) {
					continue
				}
				for _, name := range fld.Names {
					if obj := p.Info.Defs[name]; obj != nil {
						hooks[obj] = true
					}
				}
			}
			return true
		})
	}
	return hooks
}

// isHookField reports whether sel selects a hook field: one annotated
// //tm:hook in this package, or one of the runtime's built-in hooks.
func isHookField(p *Pass, annotated map[types.Object]bool, sel *ast.SelectorExpr) bool {
	s := p.Info.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal {
		return false
	}
	if annotated[s.Obj()] {
		return true
	}
	named, ok := deref(s.Recv()).(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	key := named.Obj().Pkg().Path() + "." + named.Obj().Name()
	return builtinHooks[key][s.Obj().Name()]
}

// hookExprOfCall identifies the nilable hook expression a call goes
// through: the hook selector itself (x.Hook(...)), a local alias
// (fn(...)), or — for interface-typed hooks — the receiver of a method
// call (x.Hook.Event(...), tr.Event(...)).
func hookExprOfCall(p *Pass, annotated map[types.Object]bool, aliasOf map[types.Object]*ast.SelectorExpr, call *ast.CallExpr) (ast.Expr, string) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if obj := p.Info.Uses[fun]; obj != nil {
			if sel, ok := aliasOf[obj]; ok {
				return fun, sel.Sel.Name
			}
		}
	case *ast.SelectorExpr:
		if isHookField(p, annotated, fun) {
			return fun, fun.Sel.Name
		}
		// Method call: is the receiver a hook field or an alias of one?
		if s := p.Info.Selections[fun]; s != nil && s.Kind() == types.MethodVal {
			switch recv := ast.Unparen(fun.X).(type) {
			case *ast.SelectorExpr:
				if isHookField(p, annotated, recv) {
					return recv, recv.Sel.Name
				}
			case *ast.Ident:
				if obj := p.Info.Uses[recv]; obj != nil {
					if sel, ok := aliasOf[obj]; ok {
						return recv, sel.Sel.Name
					}
				}
			}
		}
	}
	return nil, ""
}

// nilGuarded reports whether the call is dominated by a nil check of the
// hook expression: an enclosing if whose condition conjoins
// `<hook> != nil`, or an earlier `if <hook> == nil { return/panic }` in a
// block on the ancestor chain.
func nilGuarded(p *Pass, hookExpr ast.Expr, call *ast.CallExpr, stack []ast.Node) bool {
	want := exprString(p.Fset, hookExpr)
	for i := len(stack) - 1; i >= 0; i-- {
		switch anc := stack[i].(type) {
		case *ast.IfStmt:
			// Only a check guarding the then-branch dominates the call.
			if within(call, anc.Body) && condHasNilCheck(p, anc.Cond, want, token.NEQ) {
				return true
			}
		case *ast.BlockStmt:
			// An earlier `if <hook> == nil { return }` in this block.
			for _, stmt := range anc.List {
				if stmt.End() >= call.Pos() {
					break
				}
				ifs, ok := stmt.(*ast.IfStmt)
				if !ok || !condHasNilCheck(p, ifs.Cond, want, token.EQL) {
					continue
				}
				if terminates(ifs.Body) {
					return true
				}
			}
		}
	}
	return false
}

func within(n ast.Node, in ast.Node) bool {
	return in != nil && in.Pos() <= n.Pos() && n.End() <= in.End()
}

// condHasNilCheck reports whether cond contains `<want> <op> nil` as a
// conjunct (walks through && and parentheses).
func condHasNilCheck(p *Pass, cond ast.Expr, want string, op token.Token) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || be.Op != op || found {
			return !found
		}
		x, y := exprString(p.Fset, be.X), exprString(p.Fset, be.Y)
		if (x == want && y == "nil") || (y == want && x == "nil") {
			found = true
		}
		return !found
	})
	return found
}

// terminates reports whether a block always leaves the enclosing function
// or loop iteration (the domination argument for early-return guards).
func terminates(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

func exprString(fset *token.FileSet, e ast.Expr) string {
	var buf bytes.Buffer
	_ = printer.Fprint(&buf, fset, e)
	return buf.String()
}
