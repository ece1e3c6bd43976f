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
	"strings"
)

// A Package is one loaded, type-checked package.
type Package struct {
	Path      string // import path ("ftcsn/internal/route")
	Dir       string
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}

// A Loader parses and type-checks packages from source. Module-local
// import paths (under the module path from go.mod) resolve to directories
// beneath the module root; everything else goes to the compiler's source
// importer, which type-checks the standard library from GOROOT. Extra
// roots (AddRoot) let tests load fixture trees from testdata with
// synthetic import paths. Packages are cached; import cycles are errors.
type Loader struct {
	Fset       *token.FileSet
	ModRoot    string
	ModulePath string

	std     types.Importer
	extra   map[string]string
	pkgs    map[string]*Package
	loading map[string]bool
}

// NewLoader returns a Loader rooted at the module containing dir (found by
// walking up to go.mod).
func NewLoader(dir string) (*Loader, error) {
	root, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:       fset,
		ModRoot:    root,
		ModulePath: modPath,
		std:        importer.ForCompiler(fset, "source", nil),
		extra:      map[string]string{},
		pkgs:       map[string]*Package{},
		loading:    map[string]bool{},
	}, nil
}

// AddRoot registers dir as the source tree for importPath, overriding
// normal resolution: importPath resolves to dir and importPath/x to
// dir/x. Used by analysistest to mount fixture trees.
func (l *Loader) AddRoot(importPath, dir string) {
	l.extra[importPath] = dir
}

// LoadAll loads every buildable package in the tree rooted at importPath
// — the module path for the whole module, e2ebench, the commands and the
// examples included, or an AddRoot path for a fixture tree — sorted by
// import path. testdata, vendor, hidden and underscore directories are
// skipped, exactly as the go tool skips them.
func (l *Loader) LoadAll(importPath string) ([]*Package, error) {
	root, err := l.dirFor(importPath)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if !hasSources(path) {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		ip := importPath
		if rel != "." {
			ip += "/" + filepath.ToSlash(rel)
		}
		pkg, err := l.Load(ip)
		if err != nil {
			return err
		}
		pkgs = append(pkgs, pkg)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// Load parses and type-checks the package at importPath (and, recursively,
// its module-local imports).
func (l *Loader) Load(importPath string) (*Package, error) {
	if p, ok := l.pkgs[importPath]; ok {
		return p, nil
	}
	if l.loading[importPath] {
		return nil, fmt.Errorf("import cycle through %q", importPath)
	}
	l.loading[importPath] = true
	defer delete(l.loading, importPath)

	dir, err := l.dirFor(importPath)
	if err != nil {
		return nil, err
	}
	files, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no buildable non-test Go files in %s", dir)
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if l.isLocal(path) {
			p, err := l.Load(path)
			if err != nil {
				return nil, err
			}
			return p.Types, nil
		}
		return l.std.Import(path)
	})}
	tpkg, err := conf.Check(importPath, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", importPath, err)
	}
	p := &Package{
		Path:      importPath,
		Dir:       dir,
		Fset:      l.Fset,
		Files:     files,
		Types:     tpkg,
		TypesInfo: info,
	}
	l.pkgs[importPath] = p
	return p, nil
}

// isLocal reports whether path resolves inside this loader (module-local
// or a registered fixture root) rather than via the stdlib importer.
func (l *Loader) isLocal(path string) bool {
	_, err := l.dirFor(path)
	return err == nil
}

func (l *Loader) dirFor(importPath string) (string, error) {
	for ip, dir := range l.extra {
		if rest, ok := under(importPath, ip); ok {
			return filepath.Join(dir, rest), nil
		}
	}
	if rest, ok := under(importPath, l.ModulePath); ok {
		return filepath.Join(l.ModRoot, rest), nil
	}
	return "", fmt.Errorf("cannot resolve import %q (not under module %q)", importPath, l.ModulePath)
}

// under reports whether importPath is root or lies beneath it, and returns
// the remainder as a relative file path.
func under(importPath, root string) (string, bool) {
	if importPath == root {
		return "", true
	}
	rest, ok := strings.CutPrefix(importPath, root+"/")
	return filepath.FromSlash(rest), ok
}

// parseDir parses the non-test .go files of dir, with comments (the
// directives live there).
func (l *Loader) parseDir(dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !isSource(e.Name()) {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// isSource reports whether a file name is a buildable non-test Go file.
func isSource(name string) bool {
	return strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") &&
		!strings.HasPrefix(name, ".") && !strings.HasPrefix(name, "_")
}

// hasSources reports whether dir holds a buildable non-test Go file.
func hasSources(dir string) bool {
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if !e.IsDir() && isSource(e.Name()) {
			return true
		}
	}
	return false
}

func findModule(dir string) (root, modulePath string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; {
		gomod := filepath.Join(d, "go.mod")
		if data, err := os.ReadFile(gomod); err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("%s: no module directive", gomod)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("no go.mod found above %s", abs)
		}
		d = parent
	}
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
