package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ftcsn/internal/core"
)

// TestReplicaMatchesEvaluator: one block of trials through the replica
// reproduces core.Evaluator's outcomes bit for bit.
func TestReplicaMatchesEvaluator(t *testing.T) {
	nw, err := core.Build(core.DefaultParams(t2Nu))
	if err != nil {
		t.Fatal(err)
	}
	const seed, n = 99, 32
	s := newT2Eval(nw)
	want := make([]core.TrialOutcome, n)
	s.StartBlock(seed, 0, n)
	for i := range want {
		s.evaluateNext(&want[i])
	}
	rp := newReplica(nw, nil)
	rp.StartBlock(seed, 0, n)
	var got core.TrialOutcome
	for i := range want {
		rp.evaluateNext(&got)
		if got != want[i] {
			t.Fatalf("trial %d: replica %+v, Evaluator %+v", i, got, want[i])
		}
	}
	if want[0].ChurnConnects == 0 {
		t.Fatal("trials served no churn")
	}
}

// tinyConfig is a run small enough for a unit test that still leaves
// minSamples timed samples.
func tinyConfig(t *testing.T, name string, trace bool) (*workload, runConfig) {
	for i := range workloads {
		w := &workloads[i]
		if w.name != name {
			continue
		}
		cfg := runConfig{seed: 5, ops: minSamples, warm: 8 * epBlock, setups: 2, trace: trace, outDir: t.TempDir()}
		if name == "serve-n256" {
			// One sample per report window of ~64 arrivals.
			cfg.ops, cfg.warm = 72*minSamples, 500
		}
		return w, cfg
	}
	t.Fatalf("no workload %q", name)
	return nil, runConfig{}
}

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) map[string]string {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	units := map[string]string{}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		units[m.Name] = m.Unit
	}
	if len(units) != len(spec.EndToEnd)+len(spec.PerLayer) || len(spec.EndToEnd) != len(endToEndNames) {
		t.Fatalf("BENCHMARK.json declares %d end-to-end and %d per-layer metrics", len(spec.EndToEnd), len(spec.PerLayer))
	}
	return units
}

// TestTinyRunsPassChecks runs every workload at a tiny size, traced (which
// also runs the untraced pass), and requires every output check to pass
// and exactly the metrics BENCHMARK.json declares, in its units.
func TestTinyRunsPassChecks(t *testing.T) {
	units := declared(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			w, cfg := tinyConfig(t, w.name, true)
			rep := newReport()
			if err := w.run(cfg, rep); err != nil {
				t.Fatal(err)
			}
			if rep.failed != 0 || len(rep.problems) != 0 {
				t.Fatalf("%d failed ops: %v", rep.failed, rep.problems)
			}
			if rep.attempted == 0 {
				t.Fatal("no ops attempted")
			}
			for name := range endToEndNames {
				if v, ok := rep.metrics[name]; !ok || v.Value <= 0 {
					t.Errorf("end-to-end metric %s = %+v, want > 0", name, v)
				}
			}
			if c := rep.metrics["trace.coverage_share"].Value; c < minCoverage || c > 1.0001 {
				t.Errorf("trace.coverage_share = %v", c)
			}
			for name, m := range rep.metrics {
				if units[name] != m.Unit {
					t.Errorf("metric %s in %q, BENCHMARK.json says %q", name, m.Unit, units[name])
				}
			}
			if len(rep.metrics) != len(units) {
				t.Errorf("%d metrics reported, %d declared", len(rep.metrics), len(units))
			}
		})
	}
}

// TestExactRepeatIsEnforced: a second run of one seed passes against the
// first run's record, and a record that disagrees fails the run loudly.
func TestExactRepeatIsEnforced(t *testing.T) {
	w, cfg := tinyConfig(t, "theorem2-n64", false)
	var out, errOut bytes.Buffer
	for i := 0; i < 2; i++ {
		out.Reset()
		if code := execute(w, cfg, &out, &errOut); code != 0 {
			t.Fatalf("run %d exited %d: %s", i, code, errOut.String())
		}
	}
	var res result
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || len(res.Metrics) != len(endToEndNames) {
		t.Fatalf("unexpected result %+v", res)
	}

	recs, err := filepath.Glob(filepath.Join(cfg.outDir, "repeats", "*.json"))
	if err != nil || len(recs) != 1 {
		t.Fatalf("want one repeat record, got %v (%v)", recs, err)
	}
	if err := os.WriteFile(recs[0], []byte(`{"accept_share": 0.5}`), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	errOut.Reset()
	if code := execute(w, cfg, &out, &errOut); code == 0 {
		t.Fatal("run against a disagreeing record exited 0")
	}
	if !strings.Contains(errOut.String(), "exact repeat: accept_share") || !strings.Contains(out.String(), `"correct":false`) {
		t.Fatalf("mismatch not reported: stdout %q stderr %q", out.String(), errOut.String())
	}
}

// TestSpanBufferDoesNotAllocate: recording spans into the preallocated
// buffer costs no allocation per op.
func TestSpanBufferDoesNotAllocate(t *testing.T) {
	tr := newTracer(1 << 16)
	tr.start()
	allocs := testing.AllocsPerRun(1000, func() {
		tr.setOp(1)
		op := tr.begin(spOp)
		c := tr.begin(spConnect)
		tr.end(c)
		tr.end(op)
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per op", allocs)
	}
	if tr.overflow {
		t.Fatal("buffer overflowed")
	}
}

// TestSelfTimes: a span's self time excludes its children, and overflow
// is reported rather than grown into.
func TestSelfTimes(t *testing.T) {
	tr := &tracer{spans: []span{
		{start: 0, end: 100, parent: -1, name: spPass},
		{start: 10, end: 60, parent: 0, name: spOp},
		{start: 20, end: 30, parent: 1, name: spConnect},
		{start: 40, end: 45, parent: 1, name: spConnect},
		{start: 70, end: 90, parent: 0, name: spGuide},
	}}
	self := tr.selfNanos()
	for name, want := range map[spanName]int64{spPass: 30, spOp: 35, spConnect: 15, spGuide: 20} {
		if self[name] != want {
			t.Errorf("%s self = %d, want %d", spanNames[name], self[name], want)
		}
	}
	if tr.rootNanos() != 100 {
		t.Errorf("root = %d, want 100", tr.rootNanos())
	}

	small := newTracer(1)
	small.start()
	a := small.begin(spOp)
	b := small.begin(spConnect)
	small.end(b)
	small.end(a)
	if !small.overflow || b != -1 || len(small.spans) != 1 {
		t.Fatalf("overflow not reported: %+v", small)
	}
}

// TestHostAdjustment: ops timed while the reference loop ran at half its
// nominal speed count half their wall time, so a pass whose host speed
// changed midway reads as if it had not; each op is scaled by the
// readings around it; reading the host never allocates.
func TestHostAdjustment(t *testing.T) {
	host := newHostRef(0)
	p := newPass(4 * minSamples)
	for i := 0; i < 4*minSamples; i++ {
		d, ref := 600*time.Microsecond, refNominalUS // nominal speed
		if i >= 2*minSamples {
			d, ref = 1200*time.Microsecond, 2*refNominalUS // twice as slow
		}
		if i%refEvery == 0 {
			host.all = append(host.all, ref)
		}
		p.add(1, d, host)
		if i == 2*minSamples-1 || i == 4*minSamples-1 {
			host.all = append(host.all, ref, ref)
		}
	}
	rep := newReport()
	rep.endToEnd(p, host, []float64{1}, 1, 1, 1)
	for name, want := range map[string]float64{"op_p50_us": 600, "op_p95_us": 600, "ops_per_s": 1e6 / 600} {
		if got := rep.metrics[name].Value; math.Abs(got-want) > 1e-6*want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}

	h := newHostRef(100)
	if allocs := testing.AllocsPerRun(50, h.read); allocs != 0 {
		t.Errorf("host.read: %v allocations", allocs)
	}
	if len(h.all) != 51 || h.all[0] <= 0 || h.spent <= 0 {
		t.Errorf("%d readings, first %v, spent %v", len(h.all), h.all[0], h.spent)
	}
}

// TestRejectsBadArguments: a run that cannot be configured prints no
// result and exits non-zero.
func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "serve-n256", "--seconds", "0"},
		{"--workload", "serve-n256", "--trace", "2"},
		{"--bogus"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}
