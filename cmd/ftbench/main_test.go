package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestSelectIDs(t *testing.T) {
	for _, tc := range []struct {
		only    string
		want    []string
		unknown []string
	}{
		{"", nil, nil},
		{" , ", nil, nil},
		{"E1,e7", []string{"E1", "E7"}, nil},
		{" e14 ", []string{"E14"}, nil},
		{"E99", []string{"E99"}, []string{"E99"}},
		{"E1,E0,e15,E1", []string{"E0", "E1", "E15"}, []string{"E0", "E15"}},
	} {
		wantSet := map[string]bool{}
		for _, id := range tc.want {
			wantSet[id] = true
		}
		want, unknown := selectIDs(tc.only)
		if !reflect.DeepEqual(want, wantSet) || !reflect.DeepEqual(unknown, tc.unknown) {
			t.Errorf("%q: selected %v unknown %v, want %v and %v", tc.only, want, unknown, tc.want, tc.unknown)
		}
	}
}

// TestRunRejectsBeforeWriting: an unknown experiment ID or mode exits 2
// and names the culprit on stderr before the output file is created, so
// a typo leaves committed tables untouched.
func TestRunRejectsBeforeWriting(t *testing.T) {
	path := filepath.Join(t.TempDir(), "EXPERIMENTS.md")
	const committed = "committed tables\n"
	if err := os.WriteFile(path, []byte(committed), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args  []string
		cause string
	}{
		{[]string{"-o", path, "-only", "E99"}, "unknown experiment ID(s) E99"},
		{[]string{"-o", path, "-only", "E1,e99,E100"}, "unknown experiment ID(s) E99, E100"},
		{[]string{"-o", path, "-mode", "bogus", "-only", "E1"}, `unknown mode "bogus"`},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", tc.args, code)
		}
		if !strings.Contains(stderr.String(), tc.cause) {
			t.Errorf("%v: stderr %q does not say %q", tc.args, stderr.String(), tc.cause)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: wrote %q to stdout", tc.args, stdout.String())
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != committed {
			t.Fatalf("%v: output file now %q (%v), want it untouched", tc.args, got, err)
		}
	}
}

// TestRunKnownID: a known ID, in any case, renders just that experiment.
func TestRunKnownID(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-only", "e1"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	out := stdout.String()
	if !strings.HasPrefix(out, "# EXPERIMENTS") || !strings.Contains(out, "## E1 ") || strings.Contains(out, "## E2 ") {
		t.Fatalf("-only e1 rendered:\n%s", out)
	}
}
