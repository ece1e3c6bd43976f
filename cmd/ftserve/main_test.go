package main

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"ftcsn/internal/core"
)

func baseConfig() config {
	c, err := parseFlags(nil)
	if err != nil {
		panic(err)
	}
	return c
}

// TestRunDeterministic: the report is a pure function of the flags —
// byte-identical across runs — on both healthy and faulty networks.
func TestRunDeterministic(t *testing.T) {
	cases := map[string]func(*config){
		"default":      func(*config) {},
		"faulty":       func(c *config) { c.eps = 0.002 },
		"mmpp-hotspot": func(c *config) { c.arrival = "mmpp"; c.pattern = "hotspot" },
		"diurnal-pareto": func(c *config) {
			c.arrival = "diurnal"
			c.holdDist = "pareto"
			c.pattern = "permutation"
		},
	}
	for name, tweak := range cases {
		t.Run(name, func(t *testing.T) {
			c := baseConfig()
			c.duration = 60
			c.report = 20
			tweak(&c)
			r1, ev1, err := run(c)
			if err != nil {
				t.Fatal(err)
			}
			r2, ev2, err := run(c)
			if err != nil {
				t.Fatal(err)
			}
			if r1 != r2 {
				t.Fatalf("reports differ across identical runs:\n--- run 1 ---\n%s--- run 2 ---\n%s", r1, r2)
			}
			if ev1 != ev2 || ev1 == 0 {
				t.Fatalf("event counts: %d vs %d", ev1, ev2)
			}
			if !strings.Contains(r1, "final:") || !strings.Contains(r1, "behind:") {
				t.Fatalf("report missing final summary:\n%s", r1)
			}
			if !strings.Contains(r1, "t=") {
				t.Fatalf("report missing windowed lines:\n%s", r1)
			}
			if !strings.Contains(r1, "\nsharded: rejects endpoint=") {
				t.Fatalf("report lacks the sharded counter line:\n%s", r1)
			}
			if !(strings.Contains(r1, " probe=") && strings.Contains(r1, "; guide rebuilds=1 refreshes=0 rows=")) {
				t.Fatalf("sharded counter line lacks the reject or guide counters:\n%s", r1)
			}
			nw, err := core.Build(core.DefaultParams(c.nu))
			if err != nil {
				t.Fatal(err)
			}
			header := fmt.Sprintf(" vertices=%d switches=%d ", nw.G.NumVertices(), nw.G.NumEdges())
			if !strings.Contains(r1, header) {
				t.Fatalf("header lacks%q:\n%s", header, r1)
			}
		})
	}
}

// TestRunRejectsBadFlags: unknown enum values and degenerate traffic
// parameters error out instead of serving nonsense, panicking or serving
// forever (NaN and infinite rates, holds, horizons and report intervals).
func TestRunRejectsBadFlags(t *testing.T) {
	bad := []func(*config){
		func(c *config) { c.arrival = "steady" },
		func(c *config) { c.holdDist = "uniform" },
		func(c *config) { c.pattern = "tornado" },
		func(c *config) { c.rate = 0 },
		func(c *config) { c.pattern = "hotspot"; c.hotCount = 0 },
		func(c *config) { c.pattern = "hotspot"; c.hotCount = 99 },
		func(c *config) { c.pattern = "hotspot"; c.hotFrac = 1.5 },
		func(c *config) { c.pattern = "hotspot"; c.hotFrac = -0.1 },
		func(c *config) { c.eps = -0.1 },
		func(c *config) { c.eps = 0.6 },
		func(c *config) { c.eps = math.NaN() },
		func(c *config) { c.rate = math.NaN() },
		func(c *config) { c.rate = math.Inf(1) },
		func(c *config) { c.arrival = "mmpp"; c.rate = math.Inf(1) },
		func(c *config) { c.hold = math.NaN() },
		func(c *config) { c.hold = math.Inf(1) },
		func(c *config) { c.duration = math.NaN() },
		func(c *config) { c.duration = math.Inf(1) },
		func(c *config) { c.arrival = "diurnal"; c.duration = math.NaN() },
		func(c *config) { c.pattern = "hotspot"; c.hotFrac = math.NaN() },
		func(c *config) { c.report = math.NaN() },
		func(c *config) { c.report = math.Inf(1) },
	}
	for i, tweak := range bad {
		c := baseConfig()
		c.duration = 10
		tweak(&c)
		if _, _, err := run(c); err == nil {
			t.Fatalf("case %d: bad config accepted", i)
		}
	}
}
