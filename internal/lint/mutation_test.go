package lint

import (
	"go/ast"
	"go/parser"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The mutation drill proves the four flow analyzers still see the shared
// orec protocol after it moved into internal/tm: the analyzers key on
// identities and directives, and relocating code can blind them without
// any fixture noticing. Each row reverts one PR 9 soundness fix with a
// one-line edit to an in-memory copy of the real package (the files keep
// their on-disk names, so imports resolve as usual) and demands that the
// named analyzer reports it. The unmutated copy must lint clean, and
// every edit must actually apply — a protocol refactor that renames what
// a row targets fails here instead of silently passing.

const (
	protocolPkg  = "tmsync/internal/tm"
	protocolFile = "orec.go"
)

var protocolDir = filepath.Join("..", "tm")

// loadProtocol type-checks internal/tm with old replaced by new in
// protocolFile (old == "" loads the package unmodified).
func loadProtocol(t *testing.T, old, new string) (*Package, error) {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(protocolDir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	l := NewLoader()
	var files []*ast.File
	applied := old == ""
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if !applied && filepath.Base(name) == protocolFile {
			if n := strings.Count(string(src), old); n != 1 {
				t.Fatalf("%s: want exactly one occurrence of %q to mutate, found %d", protocolFile, old, n)
			}
			src = []byte(strings.Replace(string(src), old, new, 1))
			applied = true
		}
		f, err := parser.ParseFile(l.fset, name, src, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	if !applied {
		t.Fatalf("no file %s in %s", protocolFile, protocolDir)
	}
	return l.check(protocolPkg, protocolDir, files)
}

func TestMutationDrill(t *testing.T) {
	flowAnalyzers := []*Analyzer{BumpOrder, CommitStamp, ExtRecheck, LockVerFlow}

	pkg, err := loadProtocol(t, "", "")
	if err != nil {
		t.Fatal(err)
	}
	if diags := Check(flowAnalyzers, []*Package{pkg}); len(diags) != 0 {
		t.Fatalf("unmutated protocol does not lint clean: %v", diags)
	}

	for _, tc := range []struct {
		name     string
		analyzer *Analyzer
		old, new string
		wantMsg  string // "" = the mutation must fail to type-check
	}{
		{
			name:     "rollback releases before the clock bump",
			analyzer: BumpOrder,
			old:      "\ttx.Sys.Clock.Bump()\n\tfor _, idx := range tx.Locks {",
			new:      "\tfor _, idx := range tx.Locks {",
			wantMsg:  "not dominated by a Clock.Bump call",
		},
		{
			name:     "extension accepts without the ver <= Start recheck",
			analyzer: ExtRecheck,
			old:      "tx.tryExtend() && ver <= tx.Start && ",
			new:      "tx.tryExtend() && ",
			wantMsg:  "without a ver <= tx.Start recheck",
		},
		{
			name:     "acquisition forgets MaxLockVer",
			analyzer: LockVerFlow,
			old:      "\ttx.MaxLockVer = max(tx.MaxLockVer, locktable.Version(w))\n",
			new:      "",
			wantMsg:  "no reaching Tx.MaxLockVer update",
		},
		{
			name:     "publish from Clock.Now inside the protocol",
			analyzer: CommitStamp,
			old:      "locktable.UnlockedAt(s.end)",
			new:      "locktable.UnlockedAt(tx.Sys.Clock.Now())",
			wantMsg:  "does not derive from the Clock.Commit timestamp",
		},
		{
			name:     "stamp forged from Clock.Now",
			analyzer: CommitStamp,
			old:      "return Stamp{end}",
			new:      "_ = end\n\treturn Stamp{tx.Sys.Clock.Now()}",
			wantMsg:  "not the Clock.Commit timestamp",
		},
		{
			name: "publish handed Clock.Now instead of a stamp",
			old:  "tx.Publish(s)",
			new:  "tx.Publish(tx.Sys.Clock.Now())",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pkg, err := loadProtocol(t, tc.old, tc.new)
			if tc.wantMsg == "" {
				if err == nil {
					t.Fatal("mutation type-checks; the Stamp type no longer makes it unwritable")
				}
				return
			}
			if err != nil {
				t.Fatalf("mutation does not type-check (%v); it must reach the analyzer", err)
			}
			for _, d := range Check([]*Analyzer{tc.analyzer}, []*Package{pkg}) {
				if strings.Contains(d.Message, tc.wantMsg) {
					return
				}
			}
			t.Fatalf("%s did not report the mutation (want a message containing %q)", tc.analyzer.Name, tc.wantMsg)
		})
	}
}
