package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSampleMoments(t *testing.T) {
	var s Sample
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	for _, x := range xs {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Fatalf("N = %d", s.N())
	}
	if math.Abs(s.Mean()-5) > 1e-12 {
		t.Fatalf("Mean = %v", s.Mean())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("extrema = %v %v", s.Min(), s.Max())
	}
}

func TestSampleMergeMatchesSequential(t *testing.T) {
	f := func(a, b []float64) bool {
		var whole, left, right Sample
		for _, x := range a {
			clip := math.Mod(x, 1000)
			if math.IsNaN(clip) {
				clip = 0
			}
			whole.Add(clip)
			left.Add(clip)
		}
		for _, x := range b {
			clip := math.Mod(x, 1000)
			if math.IsNaN(clip) {
				clip = 0
			}
			whole.Add(clip)
			right.Add(clip)
		}
		left.Merge(&right)
		if left.N() != whole.N() {
			return false
		}
		if whole.N() == 0 {
			return true
		}
		return math.Abs(left.Mean()-whole.Mean()) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestProportionWilson(t *testing.T) {
	p := Proportion{Successes: 50, Trials: 100}
	lo, hi := p.Wilson(1.96)
	if lo >= 0.5 || hi <= 0.5 {
		t.Fatalf("interval [%v,%v] excludes point estimate", lo, hi)
	}
	if lo < 0.39 || hi > 0.61 {
		t.Fatalf("interval [%v,%v] implausibly wide for n=100", lo, hi)
	}
}

func TestWilsonZeroSuccesses(t *testing.T) {
	p := Proportion{Successes: 0, Trials: 1000}
	lo, hi := p.Wilson(1.96)
	if lo != 0 {
		t.Fatalf("lo = %v, want 0", lo)
	}
	if hi <= 0 || hi > 0.01 {
		t.Fatalf("hi = %v, want small positive", hi)
	}
}

func TestWilsonBoundsInUnitInterval(t *testing.T) {
	f := func(s, n uint16) bool {
		trials := int(n%1000) + 1
		succ := int(s) % (trials + 1)
		p := Proportion{Successes: succ, Trials: trials}
		lo, hi := p.Wilson(1.96)
		return lo >= 0 && hi <= 1 && lo <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestProportionMerge(t *testing.T) {
	a := Proportion{Successes: 3, Trials: 10}
	a.Merge(Proportion{Successes: 2, Trials: 5})
	if a.Successes != 5 || a.Trials != 15 {
		t.Fatalf("merge = %+v", a)
	}
}

func TestTableRendering(t *testing.T) {
	tab := NewTable("n", "size", "p")
	tab.AddRow(16, 1408, 0.25)
	tab.AddRow(64, 123456, 1e-9)
	out := tab.String()
	if !strings.Contains(out, "| n ") {
		t.Fatalf("missing header: %q", out)
	}
	if !strings.Contains(out, "1408") || !strings.Contains(out, "1.000e-09") {
		t.Fatalf("missing cells: %q", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("want 4 lines, got %d: %q", len(lines), out)
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		3:       "3",
		0.5:     "0.5000",
		1e-9:    "1.000e-09",
		2.5e8:   "2.500e+08",
		-4:      "-4",
		-0.0001: "-1.000e-04",
	}
	for in, want := range cases {
		if got := FormatFloat(in); got != want {
			t.Errorf("FormatFloat(%v) = %q, want %q", in, got, want)
		}
	}
}
