// Package analysis is ftlint's static-analysis framework: a minimal,
// dependency-free mirror of the golang.org/x/tools/go/analysis API
// (Analyzer / Pass / Diagnostic) plus a source loader and a suppression
// grammar, built entirely on the standard library's go/ast + go/types.
//
// Why mirror instead of depend: this module is deliberately
// dependency-free (go.mod lists nothing), and the build environments it
// must lint in are offline — so the contract checkers that guard the
// repository's invariants cannot themselves hinge on fetching x/tools.
// The API shape is kept intentionally identical to go/analysis so the
// three analyzers (determinism, hotpath, seamcontract) port verbatim if a
// pinned x/tools dependency ever becomes acceptable.
//
// The three shipped analyzers enforce, at build speed, the contracts the
// repository otherwise enforces only at runtime (see DESIGN.md §2.11):
//
//   - determinism: the committed probability tables are a pure function of
//     the code, so the packages that feed them must not iterate maps into
//     decisions, read wall clocks, use global math/rand, or select over
//     multiple ready channels.
//   - hotpath: functions annotated //ftcsn:hotpath — the 0-allocs/trial
//     paths pinned by AllocsPerRun gates — must not allocate, transitively
//     through their same-package callees.
//   - seamcontract: edge admission inside route/core goes through
//     graph.SlotAdmits or the shared traversal bytes, never by indexing
//     fault masks directly; the claim array is written only by
//     functions annotated //ftcsn:claimowner.
//
// # Annotation grammar
//
//	//ftcsn:hotpath [prose]
//	    on a function's doc comment: the function (and its same-package
//	    static callees) must be allocation-free; checked by hotpath.
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
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one analysis: its name, its documentation, and its
// entry point. The shape mirrors golang.org/x/tools/go/analysis.Analyzer.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// A Pass provides one analyzer run over one package — the analyzer's view
// of the loaded syntax and type information, and the Report sink for its
// diagnostics. It mirrors go/analysis.Pass.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)
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
	return []*Analyzer{Determinism, Hotpath, SeamContract}
}

// scopes maps each analyzer to the import paths it applies to; a nil entry
// means every package. This is the single source of the driver policy: the
// determinism contract covers the packages whose outputs reach committed
// tables or engine decisions, the seam contract covers the two packages
// that share the admission/claim seam, and hotpath is annotation-driven so
// it runs everywhere.
var scopes = map[string][]string{
	"determinism": {
		"ftcsn/internal/core",
		"ftcsn/internal/experiments",
		"ftcsn/internal/netsim",
		"ftcsn/internal/fault",
		"ftcsn/internal/route",
	},
	"seamcontract": {
		"ftcsn/internal/route",
		"ftcsn/internal/core",
	},
	"hotpath": nil,
}

// AnalyzersFor returns the analyzers whose scope covers importPath.
func AnalyzersFor(importPath string) []*Analyzer {
	var out []*Analyzer
	for _, a := range Analyzers() {
		paths, ok := scopes[a.Name]
		if !ok || paths == nil {
			out = append(out, a)
			continue
		}
		for _, p := range paths {
			if p == importPath {
				out = append(out, a)
				break
			}
		}
	}
	return out
}

// RunPackage runs the given analyzers over one loaded package, applies the
// //ftlint:ignore suppressions, and returns the surviving findings sorted
// by position. Malformed and unused suppressions are themselves findings
// (analyzer "ftlint").
func RunPackage(pkg *Package, analyzers []*Analyzer) ([]Finding, error) {
	type raw struct {
		analyzer string
		d        Diagnostic
	}
	var diags []raw
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
			Report:    func(d Diagnostic) { diags = append(diags, raw{a.Name, d}) },
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", pkg.Path, a.Name, err)
		}
	}

	sup, findings := collectSuppressions(pkg, analyzers)
	ran := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	for _, r := range diags {
		pos := pkg.Fset.Position(r.d.Pos)
		if s := sup.match(r.analyzer, pos); s != nil {
			s.used = true
			continue
		}
		findings = append(findings, Finding{Analyzer: r.analyzer, Pos: pos, Message: r.d.Message})
	}
	// Stale suppressions rot loudly: an ignore whose analyzer ran but that
	// silenced nothing must be deleted (or its finding has moved).
	for _, s := range sup.all {
		if !s.used && ran[s.analyzer] {
			findings = append(findings, Finding{
				Analyzer: "ftlint",
				Pos:      s.pos,
				Message: fmt.Sprintf(
					"unused //ftlint:ignore %s suppression: no %s finding on this or the next line",
					s.analyzer, s.analyzer),
			})
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

// ignorePrefix is the suppression directive; see the package comment for
// the grammar.
const ignorePrefix = "ftlint:ignore"

type suppression struct {
	analyzer string
	reason   string
	pos      token.Position
	used     bool
}

type suppressionSet struct {
	all []*suppression
	// byKey indexes analyzer+file+line → suppression; one suppression
	// covers its own line and the next.
	byKey map[string]*suppression
}

func (ss *suppressionSet) match(analyzer string, pos token.Position) *suppression {
	if ss.byKey == nil {
		return nil
	}
	for _, line := range [2]int{pos.Line, pos.Line - 1} {
		if s, ok := ss.byKey[fmt.Sprintf("%s\x00%s\x00%d", analyzer, pos.Filename, line)]; ok {
			return s
		}
	}
	return nil
}

// collectSuppressions scans every comment of the package for
// //ftlint:ignore directives. Malformed directives (missing analyzer,
// unknown analyzer, or missing reason) are returned as findings: a
// suppression that silently fails to parse would un-suppress — or worse,
// appear to suppress — without review.
func collectSuppressions(pkg *Package, analyzers []*Analyzer) (*suppressionSet, []Finding) {
	known := map[string]bool{}
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	ss := &suppressionSet{byKey: map[string]*suppression{}}
	var malformed []Finding
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
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
						Message: fmt.Sprintf("malformed suppression: unknown analyzer %q (have determinism, hotpath, seamcontract)", name)})
					continue
				case reason == "":
					malformed = append(malformed, Finding{Analyzer: "ftlint", Pos: pos,
						Message: fmt.Sprintf("suppression of %s without a reason: the reason is the audit trail", name)})
					continue
				}
				s := &suppression{analyzer: name, reason: reason, pos: pos}
				ss.all = append(ss.all, s)
				ss.byKey[fmt.Sprintf("%s\x00%s\x00%d", name, pos.Filename, pos.Line)] = s
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
