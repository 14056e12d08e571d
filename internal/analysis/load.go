package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Package is one parsed and type-checked module package.
type Package struct {
	Path  string // import path
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File // non-test files only
	Types *types.Package
	Info  *types.Info
}

// FindModuleRoot walks up from dir to the directory containing go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("analysis: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			rest = strings.TrimSpace(rest)
			if p, err := strconv.Unquote(rest); err == nil {
				return p, nil
			}
			return rest, nil
		}
	}
	return "", fmt.Errorf("analysis: no module directive in %s", gomod)
}

// LoadModule parses and type-checks every non-test package under the module
// rooted at root, in dependency order, and returns them sorted by import
// path. Test files are excluded: the determinism contracts nvlint enforces
// bind simulation code, not its tests.
func LoadModule(root string) ([]*Package, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}

	// Discover package directories.
	var dirs []string
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		ents, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range ents {
			n := e.Name()
			if strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
				dirs = append(dirs, path)
				break
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	type parsed struct {
		path    string
		dir     string
		files   []*ast.File
		imports map[string]bool // module-internal imports
	}
	byPath := make(map[string]*parsed)
	for _, dir := range dirs {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, err
		}
		imp := modPath
		if rel != "." {
			imp = modPath + "/" + filepath.ToSlash(rel)
		}
		p := &parsed{path: imp, dir: dir, imports: make(map[string]bool)}
		ents, err := os.ReadDir(dir)
		if err != nil {
			return nil, err
		}
		for _, e := range ents {
			n := e.Name()
			if !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
				continue
			}
			file, err := parser.ParseFile(fset, filepath.Join(dir, n), nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			p.files = append(p.files, file)
			for _, spec := range file.Imports {
				ip, _ := strconv.Unquote(spec.Path.Value)
				if ip == modPath || strings.HasPrefix(ip, modPath+"/") {
					p.imports[ip] = true
				}
			}
		}
		if len(p.files) > 0 {
			byPath[imp] = p
		}
	}

	// Topologically order by module-internal imports.
	var order []*parsed
	state := make(map[string]int) // 0 unvisited, 1 visiting, 2 done
	var visit func(p *parsed) error
	visit = func(p *parsed) error {
		switch state[p.path] {
		case 1:
			return fmt.Errorf("analysis: import cycle through %s", p.path)
		case 2:
			return nil
		}
		state[p.path] = 1
		deps := make([]string, 0, len(p.imports))
		for d := range p.imports {
			deps = append(deps, d)
		}
		sort.Strings(deps)
		for _, d := range deps {
			if dp, ok := byPath[d]; ok {
				if err := visit(dp); err != nil {
					return err
				}
			}
		}
		state[p.path] = 2
		order = append(order, p)
		return nil
	}
	paths := make([]string, 0, len(byPath))
	for p := range byPath {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if err := visit(byPath[p]); err != nil {
			return nil, err
		}
	}

	// Type-check in dependency order. Module-internal imports resolve to
	// the packages just checked; everything else falls back to the
	// toolchain importer (with a from-source importer as backstop, for
	// environments without compiled stdlib export data).
	checked := make(map[string]*types.Package)
	imp := newModuleImporter(fset, checked)
	var out []*Package
	for _, p := range order {
		pkg, err := typeCheck(imp, p.path, p.dir, fset, p.files)
		if err != nil {
			return nil, fmt.Errorf("analysis: type-checking %s: %w", p.path, err)
		}
		checked[p.path] = pkg.Types
		out = append(out, pkg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// LoadDir parses and type-checks the single package in dir, assigning it
// the given import path. Analyzer tests use it to load testdata packages
// under a path that matches (or deliberately misses) an analyzer's scope.
func LoadDir(dir, asPath string) (*Package, error) {
	fset := token.NewFileSet()
	var files []*ast.File
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range ents {
		n := e.Name()
		if !strings.HasSuffix(n, ".go") {
			continue
		}
		file, err := parser.ParseFile(fset, filepath.Join(dir, n), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, file)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	pkg, err := typeCheck(newModuleImporter(fset, nil), asPath, dir, fset, files)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", dir, err)
	}
	return pkg, nil
}

// typeCheck type-checks files as the package path, resolving imports
// through imp, and records the types.Info the analyzers read.
func typeCheck(imp types.Importer, path, dir string, fset *token.FileSet, files []*ast.File) (*Package, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, err
	}
	return &Package{Path: path, Dir: dir, Fset: fset, Files: files, Types: tpkg, Info: info}, nil
}

// moduleImporter resolves module-internal paths from the packages already
// type-checked this run and delegates the rest to the Go toolchain.
type moduleImporter struct {
	internal map[string]*types.Package
	def      types.Importer
	src      types.Importer
	srcCache map[string]*types.Package
}

// newModuleImporter builds an importer that resolves internal's packages
// before asking the toolchain.
func newModuleImporter(fset *token.FileSet, internal map[string]*types.Package) *moduleImporter {
	return &moduleImporter{
		internal: internal,
		def:      importer.Default(),
		src:      importer.ForCompiler(fset, "source", nil),
	}
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := m.internal[path]; ok {
		return pkg, nil
	}
	if pkg, err := m.def.Import(path); err == nil {
		return pkg, nil
	}
	if m.srcCache == nil {
		m.srcCache = make(map[string]*types.Package)
	}
	if pkg, ok := m.srcCache[path]; ok {
		return pkg, nil
	}
	pkg, err := m.src.Import(path)
	if err != nil {
		return nil, err
	}
	m.srcCache[path] = pkg
	return pkg, nil
}
