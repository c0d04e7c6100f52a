package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// PadCheck verifies //tm:padded structs against types.Sizes: a struct so
// annotated must be a non-zero whole multiple of the 64-byte cache line.
// The PR 2 wake-check win depends on adjacent paddedShard array elements
// (and locktable storage chunks) living on distinct cache lines; a field
// added to one of these without growing the trailing pad would silently
// reintroduce false sharing. The static check makes that a CI failure
// instead of a perf regression hunt.
var PadCheck = &Analyzer{
	Name: "padcheck",
	Doc:  "verify //tm:padded structs are whole multiples of the cache line",
	Run:  runPadCheck,
}

func runPadCheck(p *Pass) {
	if p.Sizes == nil {
		return
	}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec)
				doc := ts.Doc
				if doc == nil && len(gd.Specs) == 1 {
					doc = gd.Doc
				}
				if !groupHasDirective(doc, DirPadded) && !p.DirectiveNear(ts.Pos(), DirPadded) {
					continue
				}
				obj := p.Info.Defs[ts.Name]
				if obj == nil {
					continue
				}
				if _, ok := obj.Type().Underlying().(*types.Struct); !ok {
					p.Reportf(ts.Pos(), "//tm:padded on %s, which is not a struct", ts.Name.Name)
					continue
				}
				sz := p.Sizes.Sizeof(obj.Type())
				if sz == 0 || sz%CacheLine != 0 {
					p.Reportf(ts.Pos(),
						"//tm:padded struct %s is %d bytes, not a non-zero multiple of the %d-byte cache line: adjacent array elements would share a line (false sharing)",
						ts.Name.Name, sz, CacheLine)
				}
			}
		}
	}
}
