package tmsync_test

// Smoke tests for the runnable surfaces of the repository: every program
// under examples/ and cmd/ is compiled once and executed with a small
// workload, so a refactor of the engines or mechanisms cannot silently
// break a run path no unit test happens to cover. Each run asserts exit
// status 0 and, where the program prints a verdict, the expected marker
// in its output.

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// buildDir compiles every main package once per test binary invocation.
var buildDir struct {
	path string
	err  error
	done bool
}

func smokeBinaries(t *testing.T) string {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH")
	}
	if !buildDir.done {
		buildDir.done = true
		dir, err := os.MkdirTemp("", "tmsync-smoke")
		if err != nil {
			buildDir.err = err
		} else {
			buildDir.path = dir
			cmd := exec.Command("go", "build", "-o", dir+string(os.PathSeparator), "./...")
			cmd.Dir = repoRoot(t)
			if out, err := cmd.CombinedOutput(); err != nil {
				buildDir.err = &buildError{out: string(out), err: err}
			}
		}
	}
	if buildDir.err != nil {
		t.Fatalf("building binaries: %v", buildDir.err)
	}
	return buildDir.path
}

type buildError struct {
	out string
	err error
}

func (e *buildError) Error() string { return e.err.Error() + "\n" + e.out }

func repoRoot(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return wd
}

// runSmoke executes one built binary with args and returns its output.
func runSmoke(t *testing.T, name string, args ...string) string {
	t.Helper()
	bin := filepath.Join(smokeBinaries(t), name)
	cmd := exec.Command(bin, args...)
	cmd.Dir = repoRoot(t) // cmd/loctable reads the repo sources
	done := make(chan struct{})
	var out []byte
	var err error
	go func() {
		out, err = cmd.CombinedOutput()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		_ = cmd.Process.Kill()
		t.Fatalf("%s %v: wedged", name, args)
	}
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", name, args, err, out)
	}
	return string(out)
}

func TestSmokeExamples(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // substring the run must print
	}{
		{"quickstart", []string{"-engine", "eager"}, "OK"},
		{"barrier", []string{"-engine", "htm", "-workers", "2", "-rounds", "20"}, ""},
		{"compose", []string{"-engine", "lazy"}, "consumed"},
		{"pipeline", []string{"-engine", "hybrid", "-items", "300", "-workers", "2"}, ""},
		{"datastructures", []string{"-engine", "eager", "-jobs", "40", "-workers", "2"}, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			out := runSmoke(t, c.name, c.args...)
			if c.want != "" && !strings.Contains(out, c.want) {
				t.Errorf("output lacks %q:\n%s", c.want, out)
			}
			lower := strings.ToLower(out)
			for _, bad := range []string{"panic", "wedged", "mismatch"} {
				if strings.Contains(lower, bad) {
					t.Errorf("output contains %q:\n%s", bad, out)
				}
			}
		})
	}
}

func TestSmokeCommands(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"tmcheck", []string{"-n", "3", "-seed", "1"}, "OK: every engine x mechanism pair matched"},
		{"tmcheck", []string{"-n", "2", "-seed", "1", "-stripes", "1"}, "OK: every engine x mechanism pair matched"},
		{"tmcheck", []string{"-n", "2", "-seed", "1", "-stripes", "4", "-mech", "retry-orig", "-engine", "eager"}, "OK: every engine x mechanism pair matched"},
		{"tmcheck", []string{"-n", "2", "-seed", "1", "-clock", "pof"}, "OK: every engine x mechanism pair matched"},
		{"tmcheck", []string{"-n", "2", "-seed", "1", "-clock", "deferred"}, "OK: every engine x mechanism pair matched"},
		{"tmcheck", []string{"-n", "2", "-seed", "1", "-zipf", "1.2"}, "OK: every engine x mechanism pair matched"},
		{"tmcheck", []string{"-n", "2", "-seed", "1", "-read-mostly"}, "OK: every engine x mechanism pair matched"},
		{"tmcheck", []string{"-n", "2", "-seed", "1", "-phases", "6:counters,6:readmostly,4:map"}, "OK: every engine x mechanism pair matched"},
		{"tmcheck", []string{"-n", "1", "-seed", "2", "-inject"}, "OK: all injected violations caught"},
		{"tmstress", []string{"-engine", "hybrid", "-mech", "retry", "-threads", "4", "-seconds", "0.3", "-cap", "2"}, "OK"},
		{"boundedbuffer", []string{"-quick", "-engine", "eager", "-ops", "2048", "-trials", "1"}, "bounded buffer performance"},
		{"parsecbench", []string{"-quick", "-engine", "lazy", "-trials", "1", "-bench", "dedup"}, "dedup"},
		{"loctable", nil, "bodytrack"},
		{"tmlint", []string{"./..."}, "tmlint: ok"},
		{"tmlint", []string{"-tests", "./..."}, "tmlint: ok"},
		{"tmlint", []string{"-list"}, "lockorder"},
		{"tmlint", []string{"-analyzers", "monoclock,padcheck", "./internal/core/"}, "tmlint: ok"},
		{"tmlint", []string{"-json", "./internal/locktable/"}, `"ok": true`},
	}
	for _, c := range cases {
		name := c.name + strings.Join(c.args, "_")
		t.Run(name, func(t *testing.T) {
			out := runSmoke(t, c.name, c.args...)
			if !strings.Contains(out, c.want) {
				t.Errorf("%s output lacks %q:\n%s", c.name, c.want, out)
			}
		})
	}
}

// TestSmokeTmcheckRecordReplay pins the capture→replay workflow end to
// end through real files: record a few scenarios, replay the directory,
// and replay again with a knob override merged over the stamp.
func TestSmokeTmcheckRecordReplay(t *testing.T) {
	dir := t.TempDir()
	out := runSmoke(t, "tmcheck", "-n", "2", "-seed", "3", "-engine", "eager", "-clock", "pof", "-record", dir)
	if !strings.Contains(out, "OK: every engine x mechanism pair matched") {
		t.Fatalf("record run did not pass:\n%s", out)
	}
	matches, err := filepath.Glob(filepath.Join(dir, "*.trace"))
	if err != nil || len(matches) != 2 {
		t.Fatalf("want 2 recorded traces, got %v (err %v)", matches, err)
	}
	out = runSmoke(t, "tmcheck", "-replay", filepath.Join(dir, "*.trace"))
	if !strings.Contains(out, "OK: every engine x mechanism pair matched") {
		t.Fatalf("replay did not pass:\n%s", out)
	}
	// Knob override merges over the stamped clock=pof and must still pass.
	out = runSmoke(t, "tmcheck", "-replay", filepath.Join(dir, "*.trace"), "-clock", "deferred")
	if !strings.Contains(out, "OK: every engine x mechanism pair matched") {
		t.Fatalf("replay with knob override did not pass:\n%s", out)
	}
}

// TestSmokeTmlintUsage pins the lint driver's CLI contract: no package
// patterns (or an unknown analyzer name — a retired one included) is a
// usage error, exit 2, with the usage text on stderr — so the CI gate can
// distinguish "misinvoked" from "found violations" (exit 1) from "clean"
// (exit 0).
func TestSmokeTmlintUsage(t *testing.T) {
	bin := filepath.Join(smokeBinaries(t), "tmlint")
	for _, args := range [][]string{
		{},
		{"-analyzers", "nosuch", "./..."},
		{"-analyzers", "bumporder", "./..."},
	} {
		t.Run(strings.Join(args, "_"), func(t *testing.T) {
			out, err := exec.Command(bin, args...).CombinedOutput()
			ee, ok := err.(*exec.ExitError)
			if !ok || ee.ExitCode() != 2 {
				t.Fatalf("tmlint %v: want exit status 2, got err=%v\n%s", args, err, out)
			}
			if !strings.Contains(string(out), "tmlint") {
				t.Errorf("tmlint %v: no diagnostic printed:\n%s", args, out)
			}
		})
	}
}

// TestSmokeTmlintJSON pins the machine-readable output contract: firing
// fixture packages must exit 1 and emit a JSON report whose violations
// carry the analyzer name, position, message, and the //tm: directives in
// effect at the reported line (padcheck reports at the annotated type, so
// its violations are the ones that carry one).
func TestSmokeTmlintJSON(t *testing.T) {
	bin := filepath.Join(smokeBinaries(t), "tmlint")
	src := filepath.Join("internal", "lint", "testdata", "src")
	cmd := exec.Command(bin, "-json", "-analyzers", "hooknil,padcheck", filepath.Join(src, "hooknil"), filepath.Join(src, "padcheck"))
	cmd.Dir = repoRoot(t)
	out, err := cmd.Output()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 1 {
		t.Fatalf("tmlint -json on firing fixtures: want exit status 1, got err=%v\n%s", err, out)
	}
	var rep struct {
		OK         bool     `json:"ok"`
		Packages   int      `json:"packages"`
		Analyzers  []string `json:"analyzers"`
		Violations []struct {
			Analyzer   string   `json:"analyzer"`
			File       string   `json:"file"`
			Line       int      `json:"line"`
			Col        int      `json:"col"`
			Message    string   `json:"message"`
			Directives []string `json:"directives"`
		} `json:"violations"`
	}
	if err := json.Unmarshal(out, &rep); err != nil {
		t.Fatalf("tmlint -json output is not valid JSON: %v\n%s", err, out)
	}
	if rep.OK || rep.Packages != 2 || len(rep.Violations) == 0 {
		t.Fatalf("unexpected report shape: %+v", rep)
	}
	fired := map[string]bool{}
	foundDirective := false
	for _, v := range rep.Violations {
		fired[v.Analyzer] = true
		// Each fixture directory is named after the one analyzer it fires.
		if filepath.Base(filepath.Dir(v.File)) != v.Analyzer || v.Line == 0 || v.Col == 0 || v.Message == "" {
			t.Errorf("violation missing analyzer, position or message: %+v", v)
		}
		for _, d := range v.Directives {
			if d == "tm:padded" {
				foundDirective = true
			}
		}
	}
	if !fired["hooknil"] || !fired["padcheck"] {
		t.Errorf("want violations from both hooknil and padcheck: %+v", rep.Violations)
	}
	if !foundDirective {
		t.Errorf("no padcheck violation carried the tm:padded directive context: %+v", rep.Violations)
	}
}

// TestProtocolMutationDrill proves the runtime suite is what guards the
// orec protocol: each row reverts one soundness fix in internal/tm/orec.go
// with a minimal edit, builds the package with the edited file overlaid
// (nothing on disk changes), and demands that `go test -run TestProtocol
// ./internal/tm` fail, naming the test that states the broken fact — or,
// where the Stamp type makes the revert unwritable, that the package not
// build. The unmutated overlay must pass, and every edit must apply exactly
// once: a protocol refactor that renames what a row targets fails here
// instead of silently passing.
func TestProtocolMutationDrill(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the internal/tm protocol suite once per mutation")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH")
	}
	orec := filepath.Join(repoRoot(t), "internal", "tm", "orec.go")
	data, err := os.ReadFile(orec)
	if err != nil {
		t.Fatal(err)
	}
	src := string(data)

	// runProtocol runs the protocol suite with orec.go replaced by mutated.
	runProtocol := func(t *testing.T, mutated string) (string, error) {
		t.Helper()
		dir := t.TempDir()
		file := filepath.Join(dir, "orec.go")
		if err := os.WriteFile(file, []byte(mutated), 0o644); err != nil {
			t.Fatal(err)
		}
		overlay, err := json.Marshal(map[string]map[string]string{"Replace": {orec: file}})
		if err != nil {
			t.Fatal(err)
		}
		overlayFile := filepath.Join(dir, "overlay.json")
		if err := os.WriteFile(overlayFile, overlay, 0o644); err != nil {
			t.Fatal(err)
		}
		cmd := exec.Command("go", "test", "-overlay="+overlayFile, "-count=1", "-timeout=2m", "-run", "TestProtocol", "./internal/tm")
		cmd.Dir = repoRoot(t)
		out, err := cmd.CombinedOutput()
		return string(out), err
	}

	if out, err := runProtocol(t, src); err != nil {
		t.Fatalf("unmutated protocol does not pass its suite: %v\n%s", err, out)
	}

	const buildFailed = "[build failed]"
	for _, tc := range []struct {
		name     string
		old, new string
		want     string // the TestProtocol* test that must fail, or buildFailed
	}{
		{
			name: "rollback releases before the clock bump",
			old:  "\ttx.Sys.Clock.Bump()\n\tfor _, idx := range tx.Locks {",
			new:  "\tfor _, idx := range tx.Locks {",
			want: "TestProtocolRollbackRepublishes",
		},
		{
			name: "acquisition forgets MaxLockVer",
			old:  "\ttx.MaxLockVer = max(tx.MaxLockVer, locktable.Version(w))\n",
			new:  "",
			want: "TestProtocolVersionsStrictlyIncrease",
		},
		{
			name: "publish from Clock.Now inside the protocol",
			old:  "locktable.UnlockedAt(s.end)",
			new:  "locktable.UnlockedAt(tx.Sys.Clock.Now())",
			want: "TestProtocolExtension",
		},
		{
			name: "stamp forged from Clock.Now",
			old:  "return Stamp{end}",
			new:  "_ = end\n\treturn Stamp{tx.Sys.Clock.Now()}",
			want: "TestProtocolExtension",
		},
		{
			name: "publish handed Clock.Now instead of a stamp",
			old:  "tx.Publish(s)",
			new:  "tx.Publish(tx.Sys.Clock.Now())",
			want: buildFailed,
		},
		{
			name: "rollback republishes at the unchanged version",
			old:  "locktable.UnlockedAt(locktable.Version(w)+1)",
			new:  "locktable.UnlockedAt(locktable.Version(w))",
			want: "TestProtocolRollbackRepublishes",
		},
		{
			// Under the deferred clock the re-execution then starts at the
			// same snapshot forever; the suite's 32-attempt guard fails it.
			name: "a too-new read aborts without telling the clock",
			old:  "\tif !locktable.Locked(w) {\n\t\ttx.Sys.Clock.NoteStale(locktable.Version(w))\n\t}\n",
			new:  "",
			want: "TestProtocolExtension",
		},
		{
			name: "publish keeps the lock set from the wake scan",
			old:  "\ttx.WriteOrecs = append(tx.WriteOrecs, tx.Locks...)\n",
			new:  "",
			want: "TestProtocolWriteOrecsCoverWrites",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if n := strings.Count(src, tc.old); n != 1 {
				t.Fatalf("orec.go: want exactly one occurrence of %q to mutate, found %d", tc.old, n)
			}
			out, err := runProtocol(t, strings.Replace(src, tc.old, tc.new, 1))
			if err == nil {
				t.Fatalf("the protocol suite passes with the fix reverted:\n%s", out)
			}
			want := "--- FAIL: " + tc.want + " "
			if tc.want == buildFailed {
				want = buildFailed
			}
			if !strings.Contains(out, want) {
				t.Errorf("the run failed without %q:\n%s", want, out)
			}
		})
	}
}

// TestSmokeTmcheckRejectsContradictoryFlags pins the CLI's mode-flag
// validation: contradictory combinations, and flags of deleted features,
// must exit 2 with a diagnostic, not silently run only one of the
// requested modes.
func TestSmokeTmcheckRejectsContradictoryFlags(t *testing.T) {
	bin := filepath.Join(smokeBinaries(t), "tmcheck")
	for _, args := range [][]string{
		{"-n", "1", "-clock", "bogus"},
		{"-n", "1", "-clock", "deferred", "-ext"}, // timestamp extension is gone: an undefined flag
		{"-zipf", "-0.5"},
		{"-phases", "10:bogus"},
		{"-phases", "0:counters"},
		{"-read-mostly", "-phases", "5:counters"},
		{"-parsec", "-zipf", "1.1"},
		{"-parsec", "-record", "/tmp/nope"},
		{"-replay", "x.trace", "-seed", "7"},
		{"-replay", "x.trace", "-n", "3"},
		{"-replay", "x.trace", "-threads", "4"},
		{"-replay", "x.trace", "-ops", "9"},
		{"-replay", "x.trace", "-inject"},
		{"-replay", "x.trace", "-parsec"},
		{"-replay", "x.trace", "-zipf", "1.1"},
		{"-replay", "x.trace", "-record", "/tmp/nope"},
		{"-replay", "no-such-file-anywhere.trace"},
	} {
		t.Run(strings.Join(args, "_"), func(t *testing.T) {
			out, err := exec.Command(bin, args...).CombinedOutput()
			ee, ok := err.(*exec.ExitError)
			if !ok || ee.ExitCode() != 2 {
				t.Fatalf("tmcheck %v: want exit status 2, got err=%v\n%s", args, err, out)
			}
			if !strings.Contains(string(out), "tmcheck:") {
				t.Errorf("tmcheck %v: no diagnostic printed:\n%s", args, out)
			}
		})
	}
}

// TestSmokeCIMatrix keeps cmd/tmcheck/ci_matrix.txt — the one table CI's
// differential loop reads — runnable: every row must name a known mode and
// carry flags tmcheck accepts and passes under (a rejected combination
// exits 2). Rows run at -n 1 (the flag package lets the appended value
// win), in file order, with the record row's directory redirected into the
// test's own.
func TestSmokeCIMatrix(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("cmd", "tmcheck", "ci_matrix.txt"))
	if err != nil {
		t.Fatal(err)
	}
	traces := t.TempDir()
	rows := 0
	for _, line := range strings.Split(string(data), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		rows++
		mode, args := fields[0], fields[1:]
		if mode != "standard" && mode != "race" && mode != "both" {
			t.Errorf("row %q: unknown mode %q (want standard, race or both)", line, mode)
			continue
		}
		replay := false
		for i, a := range args {
			args[i] = strings.Replace(a, "/tmp/ci-traces", traces, 1)
			replay = replay || a == "-replay"
		}
		if !replay {
			args = append(args, "-n", "1")
		}
		if out := runSmoke(t, "tmcheck", args...); !strings.Contains(out, "\nOK: ") {
			t.Errorf("row %q: no OK verdict:\n%s", line, out)
		}
	}
	if rows == 0 {
		t.Error("ci_matrix.txt has no rows")
	}
}
