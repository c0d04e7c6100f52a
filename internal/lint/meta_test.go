package lint

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The meta-test proves each analyzer is live end to end: for every
// analyzer it writes a tiny package containing exactly one violation,
// runs the real tmlint driver over it, and asserts the exit code and the
// diagnostic text. If an analyzer silently stops reporting — a refactor
// drops it from the suite, a loader change loses the comments it keys
// on — this test fails even though the repo itself still lints clean.

var seededViolations = []struct {
	analyzer string
	src      string
	wantMsg  string
}{
	{
		analyzer: "lockorder",
		src: `package seed

import "sync"

type shard struct {
	mu      sync.Mutex
	waiters []int
}

func unvetted(s *shard) {
	s.mu.Lock()
	s.mu.Unlock()
}
`,
		wantMsg: "outside a //tm:lockorder-checked helper",
	},
	{
		analyzer: "atomicfield",
		src: `package seed

import "sync/atomic"

type c struct{ n uint64 }

func f(x *c) uint64 {
	atomic.AddUint64(&x.n, 1)
	return x.n
}
`,
		wantMsg: "mixed atomic/non-atomic access",
	},
	{
		analyzer: "noblockinatomic",
		src: `package seed

import "time"

type eng struct{}

func (eng) Atomic(fn func()) { fn() }

func f(e eng) {
	e.Atomic(func() {
		time.Sleep(time.Millisecond)
	})
}
`,
		wantMsg: "inside an Atomic(...) closure",
	},
	{
		analyzer: "monoclock",
		src: `package seed

import "time"

func f() time.Time {
	return time.Now()
}
`,
		wantMsg: "must go through internal/mono",
	},
	{
		analyzer: "padcheck",
		src: `package seed

//tm:padded
type almost struct {
	n uint64
}
`,
		wantMsg: "cache line",
	},
	{
		analyzer: "hooknil",
		src: `package seed

type sys struct {
	//tm:hook
	Hook func()
}

func f(s *sys) {
	s.Hook()
}
`,
		wantMsg: "not dominated by a nil check",
	},
}

func TestEveryAnalyzerIsLive(t *testing.T) {
	if len(seededViolations) != len(Analyzers) {
		t.Fatalf("meta-test seeds %d violations, suite has %d analyzers", len(seededViolations), len(Analyzers))
	}
	for _, tc := range seededViolations {
		t.Run(tc.analyzer, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "seed")
			if err := os.Mkdir(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, "a.go"), []byte(tc.src), 0o644); err != nil {
				t.Fatal(err)
			}
			var stdout, stderr bytes.Buffer
			code := Run([]string{dir}, &stdout, &stderr)
			if code != 1 {
				t.Fatalf("tmlint exit code = %d, want 1\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
			}
			out := stderr.String()
			if !strings.Contains(out, tc.analyzer+":") {
				t.Errorf("stderr does not name analyzer %q:\n%s", tc.analyzer, out)
			}
			if !strings.Contains(out, tc.wantMsg) {
				t.Errorf("stderr does not contain %q:\n%s", tc.wantMsg, out)
			}
		})
	}
}

func TestCleanPackageExitsZero(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "clean")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	src := `package clean

func Add(a, b int) int { return a + b }
`
	if err := os.WriteFile(filepath.Join(dir, "a.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := Run([]string{dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("tmlint exit code = %d, want 0\nstderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "tmlint: ok") {
		t.Errorf("stdout missing ok marker: %q", stdout.String())
	}
}

func TestDriverUsageAndFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := Run(nil, &stdout, &stderr); code != 2 {
		t.Errorf("no-args exit code = %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "usage: tmlint") {
		t.Errorf("no-args stderr missing usage: %q", stderr.String())
	}

	stdout.Reset()
	stderr.Reset()
	if code := Run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Errorf("-list exit code = %d, want 0", code)
	}
	for _, a := range Analyzers {
		if !strings.Contains(stdout.String(), a.Name) {
			t.Errorf("-list output missing analyzer %s", a.Name)
		}
	}

	stdout.Reset()
	stderr.Reset()
	if code := Run([]string{"-analyzers", "nosuch", "."}, &stdout, &stderr); code != 2 {
		t.Errorf("unknown analyzer exit code = %d, want 2", code)
	}
}
