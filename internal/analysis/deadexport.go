package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// DeadExport flags exported names that exist for no caller. An exported
// package-level func, method, type, var or const declared in a package
// under an internal/ directory can only be called from inside the module;
// if no non-test file of the module references it — the root package,
// internal/, cmd/, examples/ and the e2ebench module are all loaded, so
// all of their references count — it is dead code or test scaffolding
// that belongs next to its test.
//
// Three kinds of reference count besides a plain use:
//
//   - a method is used when a method of an interface it implements is
//     called anywhere in the module (route.Engine's engines, netsim's
//     source parts, montecarlo.BlockStarter behind a type assertion);
//   - a method is used when its type implements an interface the standard
//     library calls on the module's behalf: error, fmt.Stringer and
//     go/types.Importer;
//   - a type referenced only by its own methods is not used.
//
// Test-support packages — a package whose name ends in "test", such as
// analysistest — are exempt: their exports exist for other packages'
// tests, which the pass does not load. An export that must stay for such
// a test or a gated benchmark carries //ftlint:ignore deadexport <reason>
// naming it.
var DeadExport = &Analyzer{
	Name: "deadexport",
	Doc:  "flags exported names under internal/ that no non-test file of the module references",
	Run:  runDeadExport,
}

// stdInterfaces are the standard-library interfaces whose methods the
// standard library calls on module values (by package path; error is
// predeclared).
var stdInterfaces = map[string]string{"fmt": "Stringer", "go/types": "Importer"}

func runDeadExport(pass *Pass) error {
	// Candidates, in declaration order, with the identifier to report.
	var order []types.Object
	ident := map[types.Object]*ast.Ident{}
	for _, pkg := range pass.Pkgs {
		if !strings.Contains("/"+pkg.Path+"/", "/internal/") || strings.HasSuffix(pkg.Types.Name(), "test") {
			continue
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				var names []*ast.Ident
				switch d := d.(type) {
				case *ast.FuncDecl:
					names = append(names, d.Name)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							names = append(names, spec.Name)
						case *ast.ValueSpec:
							names = append(names, spec.Names...)
						}
					}
				}
				for _, id := range names {
					if obj := pkg.TypesInfo.Defs[id]; obj != nil && id.IsExported() {
						order = append(order, obj)
						ident[obj] = id
					}
				}
			}
		}
	}

	// Direct references, and the interface methods the module calls.
	used := map[types.Object]bool{}
	called := map[*types.Func]*types.Interface{}
	callAll := func(t types.Type) {
		it := t.Underlying().(*types.Interface)
		for i := 0; i < it.NumMethods(); i++ {
			called[it.Method(i)] = it
		}
	}
	callAll(types.Universe.Lookup("error").Type())
	for _, pkg := range pass.Pkgs {
		for _, imp := range pkg.Types.Imports() {
			if name, ok := stdInterfaces[imp.Path()]; ok {
				callAll(imp.Scope().Lookup(name).Type())
			}
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				own := ownObjects(pkg.TypesInfo, d)
				ast.Inspect(d, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					obj := pkg.TypesInfo.Uses[id]
					if fn, ok := obj.(*types.Func); ok {
						obj = fn.Origin()
						if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
							if it, ok := recv.Type().Underlying().(*types.Interface); ok {
								called[fn] = it
							}
						}
					}
					if obj != nil && !own[obj] {
						used[obj] = true
					}
					return true
				})
			}
		}
	}

	for _, obj := range order {
		if used[obj] || implementsCalled(obj, called) {
			continue
		}
		name := obj.Name()
		if recv := recvNamed(obj); recv != nil {
			name = recv.Obj().Name() + "." + name
		}
		pass.Reportf(ident[obj].Pos(),
			"exported %s.%s is referenced by no non-test file: delete it, or move it next to the test that uses it",
			obj.Pkg().Name(), name)
	}
	return nil
}

// ownObjects returns the objects a top-level declaration defines, plus,
// for a method, its receiver's type: references from inside a
// declaration to itself (recursion, a method naming its own type) do not
// make it used.
func ownObjects(info *types.Info, d ast.Decl) map[types.Object]bool {
	own := map[types.Object]bool{}
	switch d := d.(type) {
	case *ast.FuncDecl:
		fn, ok := info.Defs[d.Name].(*types.Func)
		if !ok {
			break
		}
		own[fn] = true
		if named := recvNamed(fn); named != nil {
			own[named.Obj()] = true
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch spec := spec.(type) {
			case *ast.TypeSpec:
				own[info.Defs[spec.Name]] = true
			case *ast.ValueSpec:
				for _, id := range spec.Names {
					own[info.Defs[id]] = true
				}
			}
		}
	}
	return own
}

// implementsCalled reports whether obj is a method whose type implements
// the interface of a called method of the same name.
func implementsCalled(obj types.Object, called map[*types.Func]*types.Interface) bool {
	named := recvNamed(obj)
	if named == nil {
		return false
	}
	for m, it := range called {
		if m.Name() == obj.Name() &&
			(types.Implements(named, it) || types.Implements(types.NewPointer(named), it)) {
			return true
		}
	}
	return false
}

// recvNamed returns the named receiver type of a method, or nil for
// anything else.
func recvNamed(obj types.Object) *types.Named {
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	named, _ := deref(recv.Type()).(*types.Named)
	return named
}

func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}
