package analysis

import (
	"go/ast"
	"sync"
	"testing"
)

// loadRepository loads the whole module once per test binary.
var loadRepository = sync.OnceValues(func() ([]*Package, error) {
	root, err := FindModuleRoot(".")
	if err != nil {
		return nil, err
	}
	return LoadModule(root)
})

// repository returns the loaded module or fails the test.
func repository(t *testing.T) []*Package {
	t.Helper()
	pkgs, err := loadRepository()
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages; the loader is missing most of the module", len(pkgs))
	}
	return pkgs
}

// TestRepositoryLintsClean loads the whole module and runs the full nvlint
// suite over it: the tree must stay lint-clean, with every intentional
// exception carrying an //nvlint:allow <check> <reason> audit trail. This
// is the same invariant CI enforces via `go run ./cmd/nvlint ./...`.
func TestRepositoryLintsClean(t *testing.T) {
	for _, d := range Run(repository(t), Analyzers()) {
		t.Errorf("%s", d)
	}
}

// TestDurableFunctionsInScope requires every non-test package that
// declares an `nvlint:durable` function to be in persistScope and
// errcheckScope: a durable function in a package outside them would
// leave the audit without a finding.
func TestDurableFunctionsInScope(t *testing.T) {
	durable := 0
	for _, pkg := range repository(t) {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !commentHas(fd.Doc, directiveDurable) {
					continue
				}
				durable++
				if !persistScope(pkg.Path) || !errcheckScope(pkg.Path) {
					t.Errorf("%s.%s is nvlint:durable, but its package is outside persistScope or errcheckScope",
						pkg.Path, fd.Name.Name)
				}
			}
		}
	}
	if durable == 0 {
		t.Fatal("no nvlint:durable function in the module; the marker or the loader changed")
	}
}
