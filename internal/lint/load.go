// Package loading. tmlint needs type-checked packages but must run from
// the bare Go distribution, so loading is built on go/parser + go/types
// with the source importer (which type-checks imports from source) and a
// single `go list -json` invocation to expand ./...-style patterns. A
// pattern that names an existing directory is loaded directly without
// consulting the go command — this is how the analysistest-style fixture
// suites load their testdata trees.
package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// A Package is one loaded, type-checked package ready for analysis.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
	Sizes      types.Sizes
}

// A Loader parses and type-checks packages. One Loader shares a FileSet
// and an import cache across every package it loads, so common
// dependencies are type-checked once per process.
//
// IncludeTests closes the historical test-file blind spot: when set,
// in-package _test.go files type-check into the package under test, and
// external (package foo_test) test files load as their own package, so
// lock/timing code in the test tree faces the same analyzers as the
// runtime.
type Loader struct {
	fset         *token.FileSet
	imp          types.Importer
	sizes        types.Sizes
	IncludeTests bool
}

// NewLoader returns a ready Loader.
func NewLoader() *Loader {
	fset := token.NewFileSet()
	sizes := types.SizesFor("gc", runtime.GOARCH)
	if sizes == nil {
		sizes = types.SizesFor("gc", "amd64")
	}
	return &Loader{
		fset:  fset,
		imp:   importer.ForCompiler(fset, "source", nil),
		sizes: sizes,
	}
}

// LoadPatterns loads the packages named by the given patterns. Patterns
// that name existing directories load directly; anything else (./...,
// import paths) goes through `go list`.
func (l *Loader) LoadPatterns(patterns []string) ([]*Package, error) {
	var dirs, rest []string
	for _, pat := range patterns {
		if st, err := os.Stat(pat); err == nil && st.IsDir() && !strings.Contains(pat, "...") {
			dirs = append(dirs, pat)
		} else {
			rest = append(rest, pat)
		}
	}
	var pkgs []*Package
	for _, dir := range dirs {
		pkg, err := l.LoadDir(dir)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	if len(rest) > 0 {
		listed, err := goList(rest)
		if err != nil {
			return nil, err
		}
		for _, lp := range listed {
			if len(lp.GoFiles) == 0 && (!l.IncludeTests || len(lp.TestGoFiles) == 0) {
				continue
			}
			var files []string
			for _, f := range lp.GoFiles {
				files = append(files, filepath.Join(lp.Dir, f))
			}
			if l.IncludeTests {
				for _, f := range lp.TestGoFiles {
					files = append(files, filepath.Join(lp.Dir, f))
				}
			}
			pkg, err := l.load(lp.ImportPath, lp.Dir, files)
			if err != nil {
				return nil, err
			}
			pkgs = append(pkgs, pkg)
			if l.IncludeTests && len(lp.XTestGoFiles) > 0 {
				xfiles := make([]string, len(lp.XTestGoFiles))
				for i, f := range lp.XTestGoFiles {
					xfiles[i] = filepath.Join(lp.Dir, f)
				}
				xpkg, err := l.load(lp.ImportPath+"_test", lp.Dir, xfiles)
				if err != nil {
					return nil, err
				}
				pkgs = append(pkgs, xpkg)
			}
		}
	}
	if len(pkgs) == 0 {
		return nil, fmt.Errorf("no packages matched %s", strings.Join(patterns, " "))
	}
	return pkgs, nil
}

// LoadDir loads the single package rooted at dir: every non-test .go file
// in the directory, type-checked as one package. With IncludeTests,
// in-package _test.go files join it; external (package foo_test) files
// are skipped — direct-dir loads produce exactly one package, and `go
// list`-driven loads handle external test packages separately.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files, testFiles []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") {
			continue
		}
		if strings.HasSuffix(name, "_test.go") {
			testFiles = append(testFiles, filepath.Join(dir, name))
			continue
		}
		files = append(files, filepath.Join(dir, name))
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	if l.IncludeTests {
		pkgName, err := packageName(files[0])
		if err != nil {
			return nil, err
		}
		for _, tf := range testFiles {
			tn, err := packageName(tf)
			if err != nil {
				return nil, err
			}
			if tn == pkgName {
				files = append(files, tf)
			}
		}
	}
	return l.load("fixture/"+filepath.Base(dir), dir, files)
}

// packageName reads just the package clause of a file.
func packageName(filename string) (string, error) {
	f, err := parser.ParseFile(token.NewFileSet(), filename, nil, parser.PackageClauseOnly)
	if err != nil {
		return "", err
	}
	return f.Name.Name, nil
}

func (l *Loader) load(importPath, dir string, filenames []string) (*Package, error) {
	var files []*ast.File
	for _, fn := range filenames {
		f, err := parser.ParseFile(l.fset, fn, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: l.imp, Sizes: l.sizes}
	tpkg, err := conf.Check(importPath, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", importPath, err)
	}
	return &Package{
		ImportPath: importPath,
		Dir:        dir,
		Fset:       l.fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
		Sizes:      l.sizes,
	}, nil
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	Dir          string
	ImportPath   string
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
}

func goList(patterns []string) ([]listPkg, error) {
	args := append([]string{"list", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		msg := strings.TrimSpace(errb.String())
		if msg == "" {
			msg = err.Error()
		}
		return nil, fmt.Errorf("go list %s: %s", strings.Join(patterns, " "), msg)
	}
	var pkgs []listPkg
	dec := json.NewDecoder(&out)
	for dec.More() {
		var p listPkg
		if err := dec.Decode(&p); err != nil {
			return nil, fmt.Errorf("decoding go list output: %w", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}
