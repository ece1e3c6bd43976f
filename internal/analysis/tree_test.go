package analysis_test

import (
	"testing"

	"ftcsn/internal/analysis"
)

// TestTreeIsClean runs the full ftlint pass over the whole module and
// requires zero findings — the same pass `make lint` runs, but wired into
// `go test` so the tier-1 gate catches a new violation even when the lint
// job is skipped.
func TestTreeIsClean(t *testing.T) {
	ld, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := ld.LoadAll(ld.ModulePath)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("LoadAll returned no packages")
	}
	findings, err := analysis.Run(pkgs, analysis.Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}
