package lint

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"strings"
)

// Analyzers is the full tmlint suite, in reporting order.
var Analyzers = []*Analyzer{
	AtomicField,
	HookNil,
	LockOrder,
	MonoClock,
	NoBlockInAtomic,
	PadCheck,
}

// Run is the tmlint driver: it parses flags, loads the named packages,
// runs the (possibly filtered) suite, prints diagnostics to stderr, and
// returns the process exit code — 0 clean, 1 findings, 2 usage or load
// error.
func Run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tmlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the analyzers and exit")
	only := fs.String("analyzers", "", "comma-separated subset of analyzers to run (default: all)")
	tests := fs.Bool("tests", false, "also load _test.go files (in-package and external test packages)")
	jsonOut := fs.Bool("json", false, "emit machine-readable JSON diagnostics on stdout")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: tmlint [-list] [-analyzers a,b,...] [-tests] [-json] packages...\n\n")
		fmt.Fprintf(stderr, "tmlint machine-checks the runtime's concurrency invariants.\nAnalyzers:\n")
		for _, a := range Analyzers {
			fmt.Fprintf(stderr, "  %-16s %s\n", a.Name, a.Doc)
		}
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range Analyzers {
			fmt.Fprintf(stdout, "%-16s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	selected := Analyzers
	if *only != "" {
		byName := make(map[string]*Analyzer, len(Analyzers))
		for _, a := range Analyzers {
			byName[a.Name] = a
		}
		selected = nil
		for _, name := range strings.Split(*only, ",") {
			name = strings.TrimSpace(name)
			a, ok := byName[name]
			if !ok {
				fmt.Fprintf(stderr, "tmlint: unknown analyzer %q (use -list)\n", name)
				return 2
			}
			selected = append(selected, a)
		}
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return 2
	}
	loader := NewLoader()
	loader.IncludeTests = *tests
	pkgs, err := loader.LoadPatterns(fs.Args())
	if err != nil {
		fmt.Fprintf(stderr, "tmlint: %v\n", err)
		return 2
	}
	diags := Check(selected, pkgs)
	if *jsonOut {
		writeJSON(stdout, selected, pkgs, diags)
		if len(diags) > 0 {
			return 1
		}
		return 0
	}
	if len(diags) > 0 {
		for _, d := range diags {
			fmt.Fprintln(stderr, d.String())
		}
		fmt.Fprintf(stderr, "tmlint: %d violation(s)\n", len(diags))
		return 1
	}
	fmt.Fprintf(stdout, "tmlint: ok (%d packages, %d analyzers)\n", len(pkgs), len(selected))
	return 0
}

// jsonReport is the -json output schema: one object per run, with one
// entry per violation carrying the analyzer, position, message, and the
// //tm: directives in effect at the reported line.
type jsonReport struct {
	OK         bool            `json:"ok"`
	Packages   int             `json:"packages"`
	Analyzers  []string        `json:"analyzers"`
	Violations []jsonViolation `json:"violations"`
}

type jsonViolation struct {
	Analyzer   string   `json:"analyzer"`
	File       string   `json:"file"`
	Line       int      `json:"line"`
	Col        int      `json:"col"`
	Message    string   `json:"message"`
	Directives []string `json:"directives,omitempty"`
}

func writeJSON(w io.Writer, selected []*Analyzer, pkgs []*Package, diags []Diagnostic) {
	rep := jsonReport{
		OK:         len(diags) == 0,
		Packages:   len(pkgs),
		Violations: []jsonViolation{},
	}
	for _, a := range selected {
		rep.Analyzers = append(rep.Analyzers, a.Name)
	}
	for _, d := range diags {
		rep.Violations = append(rep.Violations, jsonViolation{
			Analyzer:   d.Analyzer,
			File:       d.Pos.Filename,
			Line:       d.Pos.Line,
			Col:        d.Pos.Column,
			Message:    d.Message,
			Directives: d.Directives,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(rep)
}
