// Package analysis is ftlint's static-analysis framework: analyzers, one
// module-wide pass that runs them, a source loader and a suppression
// grammar, built entirely on the standard library's go/ast + go/types.
//
// Why in-tree instead of golang.org/x/tools/go/analysis: this module is
// deliberately dependency-free (go.mod lists nothing), and the build
// environments it must lint in are offline — so the contract checkers
// that guard the repository's invariants cannot themselves hinge on
// fetching x/tools. The Analyzer / Pass / Diagnostic names follow
// go/analysis, but a Pass here sees every package in the analyzer's
// scope at once: two of the rules (deadexport, hotpath) are about what
// one package's code does to another's, which go/analysis could express
// only through facts.
//
// The four shipped analyzers enforce, at build speed, the contracts the
// repository otherwise enforces only at runtime or by review (see
// DESIGN.md §2.11):
//
//   - determinism: the committed probability tables are a pure function of
//     the code, so the packages that feed them must not iterate maps into
//     decisions, read wall clocks, use global math/rand, or select over
//     multiple ready channels.
//   - deadexport: an exported name under internal/ exists for a caller, so
//     one that no non-test file in the module references is dead code.
//   - hotpath: functions annotated //ftcsn:hotpath — the 0-allocs/trial
//     paths pinned by AllocsPerRun gates — must not allocate, transitively
//     through every module function they call, statically or through an
//     interface.
//   - seamcontract: edge admission inside route/core goes through
//     graph.SlotAdmits or the shared traversal bytes, never by indexing
//     fault masks directly; the claim array is written only by
//     functions annotated //ftcsn:claimowner.
//
// # Annotation grammar
//
//	//ftcsn:hotpath [prose]
//	    on a function's doc comment: the function and every module
//	    function it reaches must be allocation-free; checked by hotpath.
//
//	//ftcsn:claimowner [prose]
//	    on a function's doc comment: this function is an audited writer
//	    of the claim array; checked by seamcontract.
//
//	//ftlint:ignore <analyzer> <reason>
//	    suppresses <analyzer>'s findings on the comment's line and the
//	    line immediately below. The reason is mandatory — a suppression
//	    is reviewable documentation of a known-safe exception, and an
//	    unused suppression is itself reported so stale exceptions rot
//	    loudly.
//
//	//ftlint:ignore hotpath cold edge: <reason>
//	    marks a call on the comment's line or the next as a cold edge
//	    (run once per block or per run, say) that the hotpath closure
//	    does not enter. It silences no finding, and it is reported as
//	    unused when the closure follows no call there.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// An Analyzer describes one analysis: its name, its documentation, the
// packages it covers, and its entry point.
type Analyzer struct {
	Name string
	Doc  string
	// Scope lists the import paths the analyzer covers; nil means every
	// package. This is the driver policy: the determinism contract covers
	// the packages whose outputs reach committed tables or engine
	// decisions, the seam contract covers the two packages that share the
	// admission/claim seam, and the module-wide rules see everything.
	Scope []string
	Run   func(*Pass) error
}

// A Pass is one analyzer's run over the packages in its scope: the loaded
// syntax and type information, and the sinks for its diagnostics.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkgs     []*Package // sorted by import path
	Report   func(Diagnostic)
	// ColdEdge reports whether a cold-edge suppression of this analyzer
	// (//ftlint:ignore <analyzer> cold edge: <reason>) covers pos, and
	// counts it as used. Findings are matched to plain suppressions by
	// the driver; a cold edge silences none, it only tells hotpath's
	// closure which calls not to follow.
	ColdEdge func(pos token.Pos) bool
}

// Reportf reports a diagnostic at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding at a position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// A Finding is a resolved diagnostic: analyzer, file position, message.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Pos, f.Analyzer, f.Message)
}

// Analyzers returns the full ftlint suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{Determinism, DeadExport, Hotpath, SeamContract}
}

func (a *Analyzer) covers(importPath string) bool {
	if a.Scope == nil {
		return true
	}
	for _, p := range a.Scope {
		if p == importPath {
			return true
		}
	}
	return false
}

// Run is the one ftlint pass: it runs each analyzer over the packages in
// its scope, applies every //ftlint:ignore line of pkgs to the findings —
// a suppression absorbs a finding in its own file wherever the finding's
// cause lies — and returns the surviving findings sorted by position.
// Malformed and unused suppressions are themselves findings (analyzer
// "ftlint"). ftlint passes every package of the module; analysistest
// passes one fixture tree.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Finding, error) {
	if len(pkgs) == 0 {
		return nil, nil
	}
	fset := pkgs[0].Fset
	sup, findings := collectSuppressions(pkgs)
	for _, a := range analyzers {
		var scoped []*Package
		for _, pkg := range pkgs {
			if a.covers(pkg.Path) {
				scoped = append(scoped, pkg)
			}
		}
		pass := &Pass{
			Analyzer: a,
			Fset:     fset,
			Pkgs:     scoped,
			Report: func(d Diagnostic) {
				pos := fset.Position(d.Pos)
				if !sup.use(a.Name, pos, false) {
					findings = append(findings, Finding{Analyzer: a.Name, Pos: pos, Message: d.Message})
				}
			},
			ColdEdge: func(p token.Pos) bool { return sup.use(a.Name, fset.Position(p), true) },
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
		// Stale suppressions rot loudly: an ignore whose analyzer covered
		// its package but that silenced nothing must be deleted (or its
		// finding has moved).
		for _, s := range sup.all {
			if s.analyzer != a.Name || s.used || !a.covers(s.pkg) {
				continue
			}
			msg := fmt.Sprintf("unused //ftlint:ignore %s suppression: no %s finding on this or the next line", s.analyzer, s.analyzer)
			if s.coldEdge {
				msg = fmt.Sprintf("unused //ftlint:ignore %s cold edge: %s follows no call on this or the next line", s.analyzer, s.analyzer)
			}
			findings = append(findings, Finding{Analyzer: "ftlint", Pos: s.pos, Message: msg})
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i].Pos, findings[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return findings, nil
}

// ignorePrefix is the suppression directive and coldEdgePrefix the reason
// prefix that makes it a cold edge; see the package comment for the
// grammar.
const (
	ignorePrefix   = "ftlint:ignore"
	coldEdgePrefix = "cold edge:"
)

type suppression struct {
	analyzer string
	pkg      string // import path of the package holding the line
	pos      token.Position
	coldEdge bool
	used     bool
}

type suppressionKey struct {
	analyzer, file string
	line           int
}

type suppressionSet struct {
	all []*suppression
	// byKey indexes analyzer+file+line → suppression; one suppression
	// covers its own line and the next.
	byKey map[suppressionKey]*suppression
}

// use reports whether a suppression of analyzer, a cold edge or a plain
// one as coldEdge says, covers pos, marking it used.
func (ss *suppressionSet) use(analyzer string, pos token.Position, coldEdge bool) bool {
	for _, line := range [2]int{pos.Line, pos.Line - 1} {
		if s, ok := ss.byKey[suppressionKey{analyzer, pos.Filename, line}]; ok && s.coldEdge == coldEdge {
			s.used = true
			return true
		}
	}
	return false
}

// collectSuppressions scans every comment of pkgs for //ftlint:ignore
// directives. Malformed directives (missing analyzer, unknown analyzer,
// or missing reason) are returned as findings: a suppression that
// silently fails to parse would un-suppress — or worse, appear to
// suppress — without review.
func collectSuppressions(pkgs []*Package) (*suppressionSet, []Finding) {
	known := map[string]bool{}
	var names []string
	for _, a := range Analyzers() {
		known[a.Name] = true
		names = append(names, a.Name)
	}
	ss := &suppressionSet{byKey: map[suppressionKey]*suppression{}}
	var malformed []Finding
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
					if !strings.HasPrefix(text, ignorePrefix) {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					rest := strings.TrimSpace(strings.TrimPrefix(text, ignorePrefix))
					name, reason, _ := strings.Cut(rest, " ")
					reason = strings.TrimSpace(reason)
					switch {
					case name == "":
						malformed = append(malformed, Finding{Analyzer: "ftlint", Pos: pos,
							Message: "malformed suppression: //ftlint:ignore needs an analyzer name and a reason"})
						continue
					case !known[name]:
						malformed = append(malformed, Finding{Analyzer: "ftlint", Pos: pos,
							Message: fmt.Sprintf("malformed suppression: unknown analyzer %q (have %s)", name, strings.Join(names, ", "))})
						continue
					case reason == "":
						malformed = append(malformed, Finding{Analyzer: "ftlint", Pos: pos,
							Message: fmt.Sprintf("suppression of %s without a reason: the reason is the audit trail", name)})
						continue
					}
					s := &suppression{analyzer: name, pkg: pkg.Path, pos: pos, coldEdge: strings.HasPrefix(reason, coldEdgePrefix)}
					ss.all = append(ss.all, s)
					ss.byKey[suppressionKey{name, pos.Filename, pos.Line}] = s
				}
			}
		}
	}
	return ss, malformed
}

// funcDirective reports whether fn's doc comment carries the //ftcsn:<name>
// directive (e.g. "hotpath", "claimowner").
func funcDirective(fn *ast.FuncDecl, name string) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		text := strings.TrimPrefix(c.Text, "//")
		if text == "ftcsn:"+name || strings.HasPrefix(text, "ftcsn:"+name+" ") {
			return true
		}
	}
	return false
}
