// Command tmlint runs the repo's static-analysis suite (internal/lint)
// over the named packages: shard-lock ordering, atomic-field discipline,
// no blocking inside transactions, and cache-line padding. Each analyzer
// guards a site the test suite cannot see; go vet and the tests check
// the rest.
//
// Usage:
//
//	tmlint ./...
//	tmlint -tests ./...
//	tmlint -list
//	tmlint -analyzers lockorder,padcheck ./internal/core/
//
// -tests also loads _test.go files (in-package and external test
// packages); CI runs with it on.
//
// Exit status: 0 if clean, 1 if violations were reported, 2 on usage or
// load errors.
package main

import (
	"os"

	"tmsync/internal/lint"
)

func main() {
	os.Exit(lint.Run(os.Args[1:], os.Stdout, os.Stderr))
}
