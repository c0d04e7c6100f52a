// Package lint is tmlint: a repo-aware static-analysis suite that
// machine-checks the runtime's concurrency invariants. Seven PRs of
// wake-path work left the codebase full of rules that existed only as
// comments and reviewer memory — shard-lock ordering, cache-line padding,
// nil-guarded System hooks, monotonic-only measurement timing, and the
// no-blocking-actions-inside-a-transaction discipline the paper's
// condition-synchronization mechanisms exist to replace. Each analyzer
// here encodes one of those invariants so CI, not a reviewer, enforces it.
// All six are per-site AST and type checks. The ordering facts of the
// orec/clock protocol (bump before release, report a too-new version to
// the clock, stamp from Clock.Commit) are not policed here: internal/tm/protocol_test.go
// checks them by running the protocol.
//
// The suite is deliberately built on the standard library alone (go/ast,
// go/parser, go/types): the API mirrors golang.org/x/tools/go/analysis —
// Analyzer, Pass, Diagnostic — so the analyzers could be rehosted on the
// upstream framework verbatim, but nothing outside the Go distribution is
// required to run them.
//
// Analyzers communicate with the code under analysis through a small
// directive vocabulary, written in ordinary comments:
//
//	//tm:padded            this struct must be a whole multiple of the
//	                       64-byte cache line (checked with types.Sizes)
//	//tm:wallclock         this time.Now/time.Since call site is a
//	                       genuine wall-clock timestamp, not a measurement
//	//tm:lockorder-checked this function is a vetted shard-lock helper
//	                       and may lock registry shards directly
//	//tm:hook              this nilable function/interface field is an
//	                       optional hook; every call must be nil-guarded
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
	DirWallclock        = "tm:wallclock"
	DirLockorderChecked = "tm:lockorder-checked"
	DirHook             = "tm:hook"
)

// An Analyzer is one invariant checker. Run inspects the package held by
// the Pass and reports violations through it.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// A Diagnostic is one reported violation, already resolved to a position.
// Directives lists the //tm: directives in effect at the reported line
// (same line or the line above), so machine consumers see the annotation
// context the analyzer saw.
type Diagnostic struct {
	Pos        token.Position
	Analyzer   string
	Message    string
	Directives []string
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
	pp := p.Fset.Position(pos)
	var near []string
	if lines := p.dirs[pp.Filename]; lines != nil {
		near = append(near, lines[pp.Line-1]...)
		near = append(near, lines[pp.Line]...)
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:        pp,
		Analyzer:   p.Analyzer.Name,
		Message:    fmt.Sprintf(format, args...),
		Directives: near,
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
