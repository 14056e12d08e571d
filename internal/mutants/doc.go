// Package mutants re-runs the mutation checks of testdata/catalog.txt. Each
// entry is a small edit to production code together with the go test
// command that must catch it. Every entry runs go test on a copy of the
// module, so the test sits behind the mutants build tag:
//
//	go test -tags mutants ./internal/mutants
package mutants
