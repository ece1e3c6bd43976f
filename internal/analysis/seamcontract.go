package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// SeamContract machine-checks the admission/claim seam between the path
// hunters (internal/route) and the evaluation core (internal/core), the
// invariant PR 4 established by convention:
//
// Rule A — edge admission goes through graph.SlotAdmits or the shared
// traversal bytes. Reading a fault mask directly — indexing a []bool
// whose name marks it as a vertex/edge admission mask (vertexOK, edgeOK,
// usable) or indexing a []fault.State — re-derives admission locally and
// silently forks the rule the hunters must share. Writes are the
// mask maintainers' job and are exempt; the handful of audited readers
// (the engines' endpoint-admission accessors, the incremental mask
// maintainer itself) carry //ftlint:ignore seamcontract suppressions that
// double as the reader registry.
//
// Rule B — the claim array is written only by audited owners. The claim
// array is a slice named "owner" (vertex → owning input). Inside a
// function not annotated //ftcsn:claimowner, any element write to it is
// an error: an assignment, op-assignment, increment or decrement of
// owner[v], a clear(owner), or a sync/atomic Store/Swap/CompareAndSwap/Add
// on owner[v]. Unsanctioned claim writes are exactly how an engine
// corrupts disjointness.
var SeamContract = &Analyzer{
	Name:  "seamcontract",
	Doc:   "forbids direct fault-mask admission reads and unsanctioned claim-array writes in route/core",
	Scope: []string{"ftcsn/internal/route", "ftcsn/internal/core"},
	Run:   runSeamContract,
}

// maskNames are the identifier names (lowercased) that mark a []bool as
// an admission mask.
var maskNames = map[string]bool{"vertexok": true, "edgeok": true, "usable": true}

// atomicWrites are the sync/atomic methods that mutate.
var atomicWrites = map[string]bool{"Store": true, "Swap": true, "CompareAndSwap": true, "Add": true}

// claimArray is the name (lowercased) of the slice Rule B guards.
const claimArray = "owner"

func runSeamContract(pass *Pass) error {
	for _, pkg := range pass.Pkgs {
		checkSeamContract(pass, pkg.TypesInfo, pkg.Files)
	}
	return nil
}

func checkSeamContract(pass *Pass, info *types.Info, files []*ast.File) {
	for _, f := range files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			claimOwner := funcDirective(fn, "claimowner")

			// Index expressions on the left of an assignment are writes,
			// not admission reads; pre-order traversal sees the
			// AssignStmt before its operands, so collect them as we go.
			writes := map[ast.Expr]bool{}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						writes[unparen(lhs)] = true
						if !claimOwner {
							checkClaimStore(pass, info, lhs)
						}
					}
				case *ast.IncDecStmt:
					if !claimOwner {
						checkClaimStore(pass, info, n.X)
					}
				case *ast.IndexExpr:
					if !writes[n] {
						checkMaskRead(pass, info, n)
					}
				case *ast.CallExpr:
					if !claimOwner {
						checkClaimWrite(pass, info, n)
					}
				}
				return true
			})
		}
	}
}

// checkMaskRead flags ix when it reads an admission mask directly: a
// []bool named like a mask, or any []fault.State.
func checkMaskRead(pass *Pass, info *types.Info, ix *ast.IndexExpr) {
	t := info.TypeOf(ix.X)
	if t == nil {
		return
	}
	slice, ok := t.Underlying().(*types.Slice)
	if !ok {
		return
	}
	if named, ok := slice.Elem().(*types.Named); ok {
		obj := named.Obj()
		if obj.Name() == "State" && obj.Pkg() != nil && strings.HasSuffix(obj.Pkg().Path(), "internal/fault") {
			pass.Reportf(ix.Pos(),
				"direct []fault.State read re-derives admission; go through graph.SlotAdmits or the shared traversal bytes")
		}
		return
	}
	if b, ok := slice.Elem().Underlying().(*types.Basic); !ok || b.Kind() != types.Bool {
		return
	}
	if maskNames[strings.ToLower(baseName(ix.X))] {
		pass.Reportf(ix.Pos(),
			"direct admission-mask read (%s); go through graph.SlotAdmits or the shared traversal bytes",
			types.ExprString(ix.X))
	}
}

// checkClaimStore flags x when it is an element of the claim array, the
// target of an assignment, op-assignment, increment or decrement outside
// //ftcsn:claimowner functions.
func checkClaimStore(pass *Pass, info *types.Info, x ast.Expr) {
	if ix, ok := unparen(x).(*ast.IndexExpr); ok && isClaimArray(info, ix.X) {
		pass.Reportf(x.Pos(),
			"write to the claim array outside a //ftcsn:claimowner function: claim writes go through the claim/release helpers")
	}
}

// checkClaimWrite flags, outside //ftcsn:claimowner functions, clear on
// the claim array and mutating sync/atomic calls on its elements.
func checkClaimWrite(pass *Pass, info *types.Info, call *ast.CallExpr) {
	if id, ok := unparen(call.Fun).(*ast.Ident); ok && len(call.Args) == 1 {
		if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "clear" && isClaimArray(info, call.Args[0]) {
			pass.Reportf(call.Pos(),
				"clear of the claim array outside a //ftcsn:claimowner function: claim writes go through the claim/release helpers")
		}
		return
	}
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !atomicWrites[sel.Sel.Name] {
		return
	}
	obj, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || obj.Pkg() == nil || obj.Pkg().Path() != "sync/atomic" {
		return
	}
	recv := unparen(sel.X)
	// The receiver is an element of the claim array either as owner[v]
	// or via a pointer derived from &owner[v].
	if u, ok := recv.(*ast.UnaryExpr); ok && u.Op == token.AND {
		recv = unparen(u.X)
	}
	if ix, ok := recv.(*ast.IndexExpr); ok && isClaimArray(info, ix.X) {
		pass.Reportf(call.Pos(),
			"%s on the claim array outside a //ftcsn:claimowner function: claim writes go through the claim/release helpers",
			sel.Sel.Name)
	}
}

// isClaimArray reports whether e is a slice named like the claim array
// (maps and other types of that name are not claims).
func isClaimArray(info *types.Info, e ast.Expr) bool {
	if strings.ToLower(baseName(e)) != claimArray {
		return false
	}
	t := info.TypeOf(e)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Slice)
	return ok
}

// baseName returns the last identifier of an expression chain:
// se.owner → "owner", vertexOK → "vertexOK".
func baseName(e ast.Expr) string {
	switch e := unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return e.Sel.Name
	}
	return ""
}
