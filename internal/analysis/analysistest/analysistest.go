// Package analysistest runs one ftlint analyzer over a fixture tree and
// checks its findings against // want annotations, mirroring the
// golang.org/x/tools/go/analysis/analysistest contract:
//
//	for k := range m { // want "map iteration"
//
// Each `// want "regex" ["regex" ...]` comment declares that the analyzer
// must report, on that source line, one finding per regex (matched against
// the finding message). Findings without a matching want, and wants
// without a matching finding, both fail the test — so a fixture proves an
// analyzer fires on a seeded violation AND stays silent on the sanctioned
// idiom next to it. The fixture goes through the same pass as the module
// (analysis.Run), so suppressions are honored exactly as in production,
// which is how fixtures prove //ftlint:ignore works, and a fixture of
// several packages exercises the cross-package rules.
//
// It lives in its own package so the ftlint binary does not link testing.
package analysistest

import (
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"ftcsn/internal/analysis"
)

// Run loads every package under testdata/src/<fixture> (relative to the
// calling test's directory; import paths start with <fixture>), runs
// exactly one analyzer over them with its scope lifted, and asserts the
// findings match the fixture's want annotations.
func Run(t *testing.T, a *analysis.Analyzer, fixture string) {
	t.Helper()
	ld, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	dir, err := filepath.Abs(filepath.Join("testdata", "src", fixture))
	if err != nil {
		t.Fatalf("fixture dir: %v", err)
	}
	ld.AddRoot(fixture, dir)
	pkgs, err := ld.LoadAll(fixture)
	if err != nil {
		t.Fatalf("loading fixture %q: %v", fixture, err)
	}
	unscoped := *a
	unscoped.Scope = nil
	findings, err := analysis.Run(pkgs, []*analysis.Analyzer{&unscoped})
	if err != nil {
		t.Fatalf("running %s on %q: %v", a.Name, fixture, err)
	}

	wants := parseWants(t, pkgs)
	for _, f := range findings {
		key := lineKey{f.Pos.Filename, f.Pos.Line}
		matched := false
		for _, w := range wants[key] {
			if !w.matched && w.re.MatchString(f.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected finding: [%s] %s", f.Pos, f.Analyzer, f.Message)
		}
	}
	var keys []lineKey
	for k := range wants {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].file != keys[j].file {
			return keys[i].file < keys[j].file
		}
		return keys[i].line < keys[j].line
	})
	for _, k := range keys {
		for _, w := range wants[k] {
			if !w.matched {
				t.Errorf("%s:%d: no %s finding matched want %q", k.file, k.line, a.Name, w.re)
			}
		}
	}
}

type lineKey struct {
	file string
	line int
}

type want struct {
	re      *regexp.Regexp
	matched bool
}

// parseWants extracts the `// want "regex" ...` annotations of every
// fixture file, keyed by the line they annotate.
func parseWants(t *testing.T, pkgs []*analysis.Package) map[lineKey][]*want {
	t.Helper()
	wants := map[lineKey][]*want{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
					rest, ok := strings.CutPrefix(text, "want ")
					if !ok {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					key := lineKey{pos.Filename, pos.Line}
					for rest = strings.TrimSpace(rest); rest != ""; rest = strings.TrimSpace(rest) {
						q, err := strconv.QuotedPrefix(rest)
						if err != nil {
							t.Fatalf("%s: malformed want annotation %q: %v", pos, text, err)
						}
						pat, err := strconv.Unquote(q)
						if err != nil {
							t.Fatalf("%s: malformed want pattern %q: %v", pos, q, err)
						}
						re, err := regexp.Compile(pat)
						if err != nil {
							t.Fatalf("%s: want pattern %q: %v", pos, pat, err)
						}
						wants[key] = append(wants[key], &want{re: re})
						rest = rest[len(q):]
					}
				}
			}
		}
	}
	return wants
}
