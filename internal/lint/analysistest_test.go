package lint

import (
	"bufio"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// The fixture suites mirror golang.org/x/tools analysistest: each
// analyzer has a package under testdata/src/<name>/ mixing firing and
// clean code, and every expected diagnostic is declared in the source
// with a same-line comment of the form:
//
//	expr // want `regex`
//
// The test demands a 1:1 match — every want must be reported, and every
// report must be wanted — so a fixture both proves the analyzer fires
// and pins the rule's blind spots (the clean code) against regression.

var wantRE = regexp.MustCompile("// want `([^`]+)`")

type wantKey struct {
	file string
	line int
}

// collectWants scans the fixture sources for want comments.
func collectWants(t *testing.T, dir string) map[wantKey][]*regexp.Regexp {
	t.Helper()
	wants := make(map[wantKey][]*regexp.Regexp)
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.IsDir() || filepath.Ext(e.Name()) != ".go" {
			continue
		}
		path := filepath.Join(dir, e.Name())
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			for _, m := range wantRE.FindAllStringSubmatch(sc.Text(), -1) {
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want regex %q: %v", path, line, m[1], err)
				}
				k := wantKey{e.Name(), line}
				wants[k] = append(wants[k], re)
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	return wants
}

// runFixture loads testdata/src/<fixture>, runs the analyzer, and
// demands a 1:1 match between reported diagnostics and want comments.
func runFixture(t *testing.T, a *Analyzer, fixture string) {
	t.Helper()
	dir := filepath.Join("testdata", "src", fixture)
	pkg, err := NewLoader().LoadDir(dir)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	wants := collectWants(t, dir)
	for _, d := range Check([]*Analyzer{a}, []*Package{pkg}) {
		k := wantKey{filepath.Base(d.Pos.Filename), d.Pos.Line}
		matched := -1
		for i, re := range wants[k] {
			if re.MatchString(d.Message) {
				matched = i
				break
			}
		}
		if matched < 0 {
			t.Errorf("unexpected diagnostic: %s", d)
			continue
		}
		wants[k] = append(wants[k][:matched], wants[k][matched+1:]...)
		if len(wants[k]) == 0 {
			delete(wants, k)
		}
	}
	for k, res := range wants {
		for _, re := range res {
			t.Errorf("%s/%s:%d: expected diagnostic matching %q was not reported", dir, k.file, k.line, re)
		}
	}
}

func TestLockOrderFixture(t *testing.T)       { runFixture(t, LockOrder, "lockorder") }
func TestAtomicFieldFixture(t *testing.T)     { runFixture(t, AtomicField, "atomicfield") }
func TestNoBlockInAtomicFixture(t *testing.T) { runFixture(t, NoBlockInAtomic, "noblockinatomic") }
func TestPadCheckFixture(t *testing.T)        { runFixture(t, PadCheck, "padcheck") }

// TestFixturesStayFixtures guards the harness itself: a fixture package
// that fails to load, or a want regex that never compiles, must fail the
// suite rather than silently skip an analyzer.
func TestFixturesStayFixtures(t *testing.T) {
	ents, err := os.ReadDir(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		if e.IsDir() {
			names = append(names, e.Name())
		}
	}
	if len(names) != len(Analyzers) {
		t.Fatalf("testdata/src has %d fixture packages, suite has %d analyzers", len(names), len(Analyzers))
	}
	for _, a := range Analyzers {
		dir := filepath.Join("testdata", "src", a.Name)
		if _, err := os.Stat(dir); err != nil {
			t.Errorf("analyzer %s has no fixture package: %v", a.Name, err)
		}
	}
}
