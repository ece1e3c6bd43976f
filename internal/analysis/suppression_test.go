package analysis_test

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"ftcsn/internal/analysis"
)

// TestSuppressionGrammar checks the failure modes of //ftlint:ignore
// itself: a reason-less suppression, an unknown analyzer, and a
// suppression that silences nothing are all findings — the grammar is
// only an audit trail if it cannot rot silently. A cold edge with no call
// to cut is unused too, and silences nothing on its line.
func TestSuppressionGrammar(t *testing.T) {
	dir := t.TempDir()
	src := `package p

//ftlint:ignore determinism
func NoReason() {}

//ftlint:ignore bogus some reason
func UnknownAnalyzer() {}

//ftlint:ignore determinism this function has no determinism finding to silence
func Unused() {}

//ftcsn:hotpath root
func Hot(n int) []int {
	//ftlint:ignore hotpath cold edge: nothing on the next line is a module call
	return make([]int, n)
}
`
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	ld, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	ld.AddRoot("p", dir)
	pkg, err := ld.Load("p")
	if err != nil {
		t.Fatal(err)
	}
	determinism := *analysis.Determinism
	determinism.Scope = nil
	findings, err := analysis.Run([]*analysis.Package{pkg}, []*analysis.Analyzer{&determinism, analysis.Hotpath})
	if err != nil {
		t.Fatal(err)
	}
	wants := []struct{ analyzer, sub string }{
		{"ftlint", "without a reason"},
		{"ftlint", `unknown analyzer "bogus"`},
		{"ftlint", "unused //ftlint:ignore determinism"},
		{"ftlint", "unused //ftlint:ignore hotpath cold edge"},
		{"hotpath", "make allocates"},
	}
	if len(findings) != len(wants) {
		t.Fatalf("got %d findings, want %d: %v", len(findings), len(wants), findings)
	}
	for i, w := range wants {
		if !strings.Contains(findings[i].Message, w.sub) {
			t.Errorf("finding %d = %q, want substring %q", i, findings[i].Message, w.sub)
		}
		if findings[i].Analyzer != w.analyzer {
			t.Errorf("finding %d analyzer = %q, want %s", i, findings[i].Analyzer, w.analyzer)
		}
	}
}

// TestAnalyzerScopes pins the driver policy: determinism and seamcontract
// cover only the packages whose contracts they enforce; deadexport and
// hotpath see the whole module (their rules are about what one package's
// code does to another's).
func TestAnalyzerScopes(t *testing.T) {
	covering := func(path string) string {
		var out []string
		for _, a := range analysis.Analyzers() {
			if a.Scope == nil || slices.Contains(a.Scope, path) {
				out = append(out, a.Name)
			}
		}
		return strings.Join(out, " ")
	}
	cases := []struct {
		path string
		want string
	}{
		{"ftcsn/internal/route", "determinism deadexport hotpath seamcontract"},
		{"ftcsn/internal/core", "determinism deadexport hotpath seamcontract"},
		{"ftcsn/internal/fault", "determinism deadexport hotpath"},
		{"ftcsn/internal/netsim", "determinism deadexport hotpath"},
		{"ftcsn/internal/experiments", "determinism deadexport hotpath"},
		{"ftcsn/internal/montecarlo", "deadexport hotpath"},
		{"ftcsn/cmd/ftsim", "deadexport hotpath"},
	}
	for _, c := range cases {
		if got := covering(c.path); got != c.want {
			t.Errorf("analyzers covering %s = %q, want %q", c.path, got, c.want)
		}
	}
}
