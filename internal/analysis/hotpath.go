package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
)

// Hotpath is the static complement of the AllocsPerRun benchmark gates:
// functions annotated //ftcsn:hotpath must be allocation-free, and the
// check extends transitively through every module function they call.
// The closure follows static calls into any package of the module, and
// resolves an interface method call to every implementation declared in
// a non-main package (a command's or a benchmark's adapter types are not
// pipeline code). Calls through function values are not followed. A root
// therefore stands for everything it reaches, so one root per pipeline
// entry suffices.
//
// Flagged constructs: go statements, closure literals, make/new, slice
// and map composite literals, &T{...} literals, fmt calls, non-constant
// string concatenation, interface boxing (conversions and call arguments
// that box a non-pointer-shaped value), variadic calls that materialize
// an argument slice, and append — except the arena idiom
// `x = append(x, ...)` / `x = append(x[:k], ...)`, where the result
// reassigns the same slice header it extends, so steady-state growth is
// amortized into pre-sized backing arrays.
//
// A finding is either a latent allocation (fix it) or a cold corner of
// the hot path — pool-miss fallbacks, lazy one-time init, panic paths —
// which gets a //ftlint:ignore hotpath <reason> documenting why the
// AllocsPerRun gate never sees it. A call that runs once per block or per
// run gets //ftlint:ignore hotpath cold edge: <reason> instead: the
// closure does not enter it. The two never stand in for each other, so
// silencing an allocation on a line never drops that line's callees.
var Hotpath = &Analyzer{
	Name: "hotpath",
	Doc:  "checks //ftcsn:hotpath functions and every module function they reach for allocations",
	Run:  runHotpath,
}

// funcDecl is a module function with a body, and the package declaring it.
type funcDecl struct {
	pkg  *Package
	decl *ast.FuncDecl
}

func runHotpath(pass *Pass) error {
	// Collect every function declaration, the //ftcsn:hotpath roots, and
	// the named types interface calls may dispatch to.
	decls := map[*types.Func]funcDecl{}
	var roots []*types.Func
	var impls []*types.Named
	for _, pkg := range pass.Pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				obj, ok := pkg.TypesInfo.Defs[fn.Name].(*types.Func)
				if !ok {
					continue
				}
				decls[obj] = funcDecl{pkg, fn}
				if funcDirective(fn, "hotpath") {
					roots = append(roots, obj)
				}
			}
		}
		if pkg.Types.Name() == "main" {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() == 0 {
				impls = append(impls, named)
			}
		}
	}

	// Breadth-first closure, remembering which root made each function
	// hot (for the diagnostic message).
	rootOf := map[*types.Func]string{}
	queue := roots
	for _, r := range roots {
		rootOf[r] = funcName(r)
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		d := decls[fn]
		ast.Inspect(d.decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callees := calleesOf(d.pkg.TypesInfo, call, decls, impls)
			if len(callees) == 0 || pass.ColdEdge(call.Pos()) {
				return true
			}
			for _, c := range callees {
				if _, seen := rootOf[c]; !seen {
					rootOf[c] = rootOf[fn]
					queue = append(queue, c)
				}
			}
			return true
		})
	}

	for fn, root := range rootOf {
		d := decls[fn]
		checkHotFunc(pass, d.pkg.TypesInfo, d.decl, root)
	}
	return nil
}

// calleesOf resolves a call to the module functions it may run: the
// static callee, or for an interface method call each implementation
// among impls.
func calleesOf(info *types.Info, call *ast.CallExpr, decls map[*types.Func]funcDecl, impls []*types.Named) []*types.Func {
	var out []*types.Func
	add := func(obj types.Object) {
		if fn, ok := obj.(*types.Func); ok {
			if _, ok := decls[fn.Origin()]; ok {
				out = append(out, fn.Origin())
			}
		}
	}
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s := info.Selections[sel]; s != nil && s.Kind() == types.MethodVal && types.IsInterface(s.Recv()) {
			iface := s.Recv().Underlying().(*types.Interface)
			m := s.Obj()
			for _, t := range impls {
				for _, recv := range [2]types.Type{t, types.NewPointer(t)} {
					if types.Implements(recv, iface) {
						obj, _, _ := types.LookupFieldOrMethod(recv, false, m.Pkg(), m.Name())
						add(obj)
						break
					}
				}
			}
			return out
		}
	}
	add(calleeObject(info, call))
	return out
}

// funcName names fn for messages: pkg.Func or pkg.(*T).Method.
func funcName(fn *types.Func) string {
	name := fn.Name()
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		name = "(" + types.TypeString(recv.Type(), types.RelativeTo(fn.Pkg())) + ")." + name
	}
	return fn.Pkg().Name() + "." + name
}

// checkHotFunc walks one hot function's body (closure bodies included —
// a closure created here runs here) and reports every allocating
// construct.
func checkHotFunc(pass *Pass, info *types.Info, fn *ast.FuncDecl, root string) {
	// Appends of the sanctioned self-assignment form are collected first:
	// ast.Inspect is pre-order, so an AssignStmt is visited before the
	// append call on its right-hand side.
	sanctioned := map[*ast.CallExpr]bool{}
	report := func(n ast.Node, format string, args ...any) {
		pass.Reportf(n.Pos(), "%s (hot path via //ftcsn:hotpath %s)", fmt.Sprintf(format, args...), root)
	}

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			markSanctionedAppends(info, n, sanctioned)
		case *ast.GoStmt:
			report(n, "go statement allocates a goroutine")
		case *ast.FuncLit:
			report(n, "closure literal allocates")
		case *ast.UnaryExpr:
			if n.Op.String() == "&" {
				if _, ok := unparen(n.X).(*ast.CompositeLit); ok {
					report(n, "&composite literal escapes to the heap")
				}
			}
		case *ast.CompositeLit:
			if t := info.TypeOf(n); t != nil {
				switch t.Underlying().(type) {
				case *types.Slice:
					report(n, "slice literal allocates its backing array")
				case *types.Map:
					report(n, "map literal allocates")
				}
			}
		case *ast.BinaryExpr:
			if n.Op.String() == "+" {
				if tv, ok := info.Types[n]; ok && tv.Value == nil {
					if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
						report(n, "string concatenation allocates")
					}
				}
			}
		case *ast.CallExpr:
			checkHotCall(info, n, sanctioned, report)
		}
		return true
	})
}

// markSanctionedAppends records append calls of the arena idiom
// x = append(x, ...) / x = append(x[:k], ...), matching the assignment
// target against the append's first argument with slice expressions
// stripped.
func markSanctionedAppends(info *types.Info, as *ast.AssignStmt, sanctioned map[*ast.CallExpr]bool) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, rhs := range as.Rhs {
		call, ok := unparen(rhs).(*ast.CallExpr)
		if !ok || !isBuiltin(info, call, "append") || len(call.Args) == 0 {
			continue
		}
		base := unparen(call.Args[0])
		for {
			if se, ok := base.(*ast.SliceExpr); ok {
				base = unparen(se.X)
				continue
			}
			break
		}
		if types.ExprString(as.Lhs[i]) == types.ExprString(base) {
			sanctioned[call] = true
		}
	}
}

func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = info.Uses[id].(*types.Builtin)
	return ok
}

func checkHotCall(info *types.Info, call *ast.CallExpr, sanctioned map[*ast.CallExpr]bool, report func(ast.Node, string, ...any)) {
	// Conversion, not a call: T(x) boxing when T is an interface.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if types.IsInterface(tv.Type.Underlying()) && len(call.Args) == 1 {
			if boxes(info, call.Args[0]) {
				report(call, "conversion to interface boxes %s", types.ExprString(call.Args[0]))
			}
		}
		return
	}

	if id, ok := unparen(call.Fun).(*ast.Ident); ok {
		if _, isB := info.Uses[id].(*types.Builtin); isB {
			switch id.Name {
			case "make":
				report(call, "make allocates")
			case "new":
				report(call, "new allocates")
			case "append":
				if !sanctioned[call] {
					report(call, "append outside the x = append(x, ...) arena idiom may allocate a new backing array")
				}
			}
			return
		}
	}

	if obj := calleeObject(info, call); obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "fmt" {
		report(call, "fmt.%s allocates (formatting, interface boxing)", obj.Name())
		return
	}

	// Interface boxing at call boundaries, and the slice a variadic call
	// materializes for its ... arguments.
	tv, ok := info.Types[call.Fun]
	if !ok {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				pt = params.At(params.Len() - 1).Type()
			} else if s, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = s.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt == nil {
			continue
		}
		// A type-parameter parameter is not an interface parameter: generic
		// calls pass the value directly (its underlying constraint interface
		// must not trip the check).
		if _, isTP := pt.(*types.TypeParam); isTP {
			continue
		}
		if types.IsInterface(pt.Underlying()) && boxes(info, arg) {
			report(arg, "passing %s as interface argument boxes it", types.ExprString(arg))
		}
	}
	if sig.Variadic() && !call.Ellipsis.IsValid() && len(call.Args) >= params.Len() {
		report(call, "variadic call allocates its argument slice")
	}
}

// boxes reports whether passing arg to an interface allocates: true for
// non-interface, non-pointer-shaped, non-constant values. Constants
// convert to static data; pointers, channels, maps, and funcs fit the
// interface word directly.
func boxes(info *types.Info, arg ast.Expr) bool {
	tv, ok := info.Types[arg]
	if !ok || tv.Value != nil { // constants (incl. string literals) are static data
		return false
	}
	t := tv.Type
	if t == nil {
		return false
	}
	// A type parameter's underlying type is its constraint interface, which
	// would slip through the switch below; at the generic declaration site
	// the instantiation is unknown, so assume the worst (a value type boxes).
	if _, ok := t.(*types.TypeParam); ok {
		return true
	}
	switch u := t.Underlying().(type) {
	case *types.Interface:
		return false
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false
	case *types.Basic:
		if u.Kind() == types.UnsafePointer || u.Kind() == types.UntypedNil {
			return false
		}
	}
	return true
}
