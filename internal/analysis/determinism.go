package analysis

import (
	"go/ast"
	"go/types"
	"strconv"
)

// Determinism enforces the reproducibility contract of the deterministic
// packages (its Scope): every committed probability table and every
// engine decision must be a pure function of the code and the seed. Four
// constructs break that purity and are flagged:
//
//   - ranging over a map: Go randomizes iteration order per run, so any
//     map-ordered result drifts between otherwise identical runs;
//   - importing math/rand or math/rand/v2: the repo's randomness comes
//     from ftcsn/internal/rng pure per-trial streams, and the global
//     math/rand source is shared mutable state seeded per process;
//   - wall-clock reads (time.Now/Since/After/Tick/NewTimer/NewTicker):
//     timing must never reach an output a differential test pins;
//   - select with two or more ready channels: the runtime picks
//     uniformly at random among ready cases.
//
// Findings in code whose nondeterminism provably cannot reach committed
// output (order-insensitive map folds, wall-clock throughput columns that
// only print in non-committed full mode) are suppressed in place with
// //ftlint:ignore determinism <reason>.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "flags map iteration, wall-clock reads, global math/rand, and multi-ready select in deterministic packages",
	Scope: []string{
		"ftcsn/internal/core",
		"ftcsn/internal/experiments",
		"ftcsn/internal/netsim",
		"ftcsn/internal/netsim/netsimtest",
		"ftcsn/internal/fault",
		"ftcsn/internal/route",
	},
	Run: runDeterminism,
}

// wallClockFuncs are the time package entry points that read or arm the
// wall clock. Pure constructors/formatters (time.Duration, time.Unix,
// t.Format) stay legal.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "After": true, "Tick": true,
	"NewTimer": true, "NewTicker": true, "AfterFunc": true,
}

func runDeterminism(pass *Pass) error {
	for _, pkg := range pass.Pkgs {
		checkDeterminism(pass, pkg)
	}
	return nil
}

func checkDeterminism(pass *Pass, pkg *Package) {
	info := pkg.TypesInfo
	for _, f := range pkg.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if path == "math/rand" || path == "math/rand/v2" {
				pass.Reportf(imp.Pos(),
					"import of %s: deterministic packages draw randomness from ftcsn/internal/rng per-trial streams", path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				if t := info.TypeOf(n.X); t != nil {
					if _, ok := t.Underlying().(*types.Map); ok {
						pass.Reportf(n.Pos(),
							"map iteration order is randomized per run; sort keys first or use an order-insensitive fold")
					}
				}
			case *ast.SelectStmt:
				ready := 0
				for _, c := range n.Body.List {
					if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
						ready++
					}
				}
				if ready >= 2 {
					pass.Reportf(n.Pos(),
						"select with %d channel cases: the runtime picks uniformly at random among ready cases", ready)
				}
			case *ast.CallExpr:
				if obj := calleeObject(info, n); obj != nil &&
					obj.Pkg() != nil && obj.Pkg().Path() == "time" && wallClockFuncs[obj.Name()] {
					pass.Reportf(n.Pos(),
						"time.%s reads the wall clock; deterministic outputs must not depend on timing", obj.Name())
				}
			}
			return true
		})
	}
}

// unparen strips any enclosing parentheses. (ast.Unparen needs go1.22;
// the module's language version is 1.21.)
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// calleeObject resolves the object a call expression statically invokes
// (function, method, or imported function), or nil for dynamic calls,
// builtins, and conversions.
func calleeObject(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		return info.Uses[fun.Sel]
	case *ast.IndexExpr: // generic instantiation f[T](...)
		if id, ok := unparen(fun.X).(*ast.Ident); ok {
			return info.Uses[id]
		}
		if sel, ok := unparen(fun.X).(*ast.SelectorExpr); ok {
			return info.Uses[sel.Sel]
		}
	case *ast.IndexListExpr:
		if id, ok := unparen(fun.X).(*ast.Ident); ok {
			return info.Uses[id]
		}
		if sel, ok := unparen(fun.X).(*ast.SelectorExpr); ok {
			return info.Uses[sel.Sel]
		}
	}
	return nil
}
