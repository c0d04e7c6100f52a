// Package lint is tmlint: a repo-aware static-analysis suite for the
// runtime's concurrency invariants that no run can see. An analyzer stays
// only while it guards a real site that tier-1 (`go test ./...`), `go vet`
// or the Go runtime does not already check; each of the four names its
// site:
//
//	atomicfield      mem.Var.w: a plain read of it passes tier-1 and -race
//	lockorder        core's five //tm:lockorder-checked shard-lock helpers
//	noblockinatomic  the Atomic closures in examples/ and benchmark/
//	padcheck         benchmark/'s recorder and paddedWord, which have no layout test
//
// Facts a run already checks are not linted: the orec/clock protocol's
// ordering (internal/tm/protocol_test.go), nil hooks (every test System
// leaves them nil, so an unguarded call panics), the runtime structs'
// padding (their layout tests), and copies of atomics (go vet's
// copylocks).
//
// The suite is deliberately built on the standard library alone (go/ast,
// go/parser, go/types): the API mirrors golang.org/x/tools/go/analysis —
// Analyzer, Pass, Diagnostic — so the analyzers could be rehosted on the
// upstream framework verbatim, but nothing outside the Go distribution is
// required to run them.
//
// Analyzers communicate with the code under analysis through two
// directives, written in ordinary comments:
//
//	//tm:padded            this struct must be a whole multiple of the
//	                       64-byte cache line (checked with types.Sizes)
//	//tm:lockorder-checked this function is a vetted shard-lock helper
//	                       and may lock registry shards directly
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
)

// CacheLine is the coherence granularity padcheck verifies against; it
// must match the constant the runtime pads to (internal/locktable).
const CacheLine = 64

// The directive vocabulary.
const (
	DirPadded           = "tm:padded"
	DirLockorderChecked = "tm:lockorder-checked"
)

// An Analyzer is one invariant checker. Run inspects the package held by
// the Pass and reports violations through it.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// A Diagnostic is one reported violation, already resolved to a position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// A Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	Sizes    types.Sizes

	dirs  directiveIndex
	diags *[]Diagnostic
}

// Reportf records a violation at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// directiveIndex records, per file and line, the //tm: directives whose
// comments touch that line — so analyzers can honor both trailing
// (same-line) and immediately-preceding-line directive placement.
type directiveIndex map[string]map[int][]string

var directiveRE = regexp.MustCompile(`//tm:([a-z-]+)`)

func buildDirectiveIndex(fset *token.FileSet, files []*ast.File) directiveIndex {
	idx := make(directiveIndex)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, m := range directiveRE.FindAllStringSubmatch(c.Text, -1) {
					pos := fset.Position(c.Pos())
					lines := idx[pos.Filename]
					if lines == nil {
						lines = make(map[int][]string)
						idx[pos.Filename] = lines
					}
					lines[pos.Line] = append(lines[pos.Line], "tm:"+m[1])
				}
			}
		}
	}
	return idx
}

// DirectiveNear reports whether the named directive appears on the same
// line as pos or on the line immediately above it.
func (p *Pass) DirectiveNear(pos token.Pos, name string) bool {
	pp := p.Fset.Position(pos)
	lines := p.dirs[pp.Filename]
	if lines == nil {
		return false
	}
	for _, d := range lines[pp.Line] {
		if d == name {
			return true
		}
	}
	for _, d := range lines[pp.Line-1] {
		if d == name {
			return true
		}
	}
	return false
}

// groupHasDirective reports whether a doc-comment group carries the named
// directive.
func groupHasDirective(doc *ast.CommentGroup, name string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		for _, m := range directiveRE.FindAllStringSubmatch(c.Text, -1) {
			if "tm:"+m[1] == name {
				return true
			}
		}
	}
	return false
}

// calleeObj resolves the object a call expression invokes, or nil when the
// callee is not a simple identifier or selector (e.g. a call of a call).
func calleeObj(p *Pass, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return p.Info.Uses[fun]
	case *ast.SelectorExpr:
		return p.Info.Uses[fun.Sel]
	}
	return nil
}

// inspectWithStack walks root like ast.Inspect while maintaining the
// ancestor stack (excluding the visited node itself).
func inspectWithStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if !fn(n, stack) {
			return false
		}
		stack = append(stack, n)
		return true
	})
}

// deref strips one level of pointer.
func deref(t types.Type) types.Type {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// Check runs the given analyzers over the given packages and returns all
// diagnostics, sorted by position then analyzer name.
func Check(analyzers []*Analyzer, pkgs []*Package) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		idx := buildDirectiveIndex(pkg.Fset, pkg.Files)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				Sizes:    pkg.Sizes,
				dirs:     idx,
				diags:    &diags,
			}
			a.Run(pass)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}
