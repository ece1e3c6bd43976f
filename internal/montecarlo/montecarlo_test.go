package montecarlo

import (
	"math"
	"sync/atomic"
	"testing"

	"ftcsn/internal/rng"
	"ftcsn/internal/stats"
)

// runBool runs RunBoolWith with no scratch.
func runBool(cfg Config, trial func(r *rng.RNG) bool) stats.Proportion {
	return RunBoolWith(cfg, func() struct{} { return struct{}{} },
		func(r *rng.RNG, _ struct{}) bool { return trial(r) })
}

func TestRunBoolEstimates(t *testing.T) {
	p := runBool(Config{Trials: 20000, Workers: 4, Seed: 1}, func(r *rng.RNG) bool {
		return r.Bernoulli(0.3)
	})
	if p.Trials != 20000 {
		t.Fatalf("trials = %d", p.Trials)
	}
	if math.Abs(p.Estimate()-0.3) > 0.02 {
		t.Fatalf("estimate = %v", p.Estimate())
	}
}

func TestRunBoolReproducibleAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) int {
		p := runBool(Config{Trials: 5000, Workers: workers, Seed: 99}, func(r *rng.RNG) bool {
			return r.Bernoulli(0.5)
		})
		return p.Successes
	}
	if run(1) != run(8) {
		t.Fatal("results depend on worker count")
	}
}

// TestRunSample pins RunSampleWith's reduction: the mean merged from three
// workers' samples equals the mean of the same 10,000 draws taken in trial
// order, so no worker's partial sample is dropped, repeated or misweighted.
func TestRunSample(t *testing.T) {
	const trials, seed = 10000, 5
	s := RunSampleWith(Config{Trials: trials, Workers: 3, Seed: seed}, func() struct{} { return struct{}{} },
		func(r *rng.RNG, _ struct{}) float64 { return r.Float64() })
	var sum float64
	for i := uint64(0); i < trials; i++ {
		sum += rng.Stream(seed, i).Float64()
	}
	if want := sum / trials; math.Abs(s.Mean()-want) > 1e-9 {
		t.Fatalf("mean = %v, want %v (the trials' mean in order)", s.Mean(), want)
	}
}

func TestEveryTrialRunsExactlyOnce(t *testing.T) {
	var count atomic.Int64
	runBool(Config{Trials: 1234, Workers: 7, Seed: 2}, func(r *rng.RNG) bool {
		count.Add(1)
		return true
	})
	if count.Load() != 1234 {
		t.Fatalf("ran %d trials", count.Load())
	}
}

func TestZeroTrials(t *testing.T) {
	p := runBool(Config{Trials: 0, Seed: 3}, func(r *rng.RNG) bool { return true })
	if p.Trials != 0 {
		t.Fatal("phantom trials")
	}
	s := RunSampleWith(Config{Trials: 0, Seed: 3}, func() struct{} { return struct{}{} },
		func(*rng.RNG, struct{}) float64 { return 1 })
	if s != (stats.Sample{}) {
		t.Fatal("phantom samples")
	}
}

func TestDefaultWorkers(t *testing.T) {
	p := runBool(Config{Trials: 100, Seed: 4}, func(r *rng.RNG) bool { return true })
	if p.Successes != 100 {
		t.Fatalf("successes = %d", p.Successes)
	}
}

// TestNegativeConfigPanics locks the validation contract: negative
// Workers or Block is a caller bug and must panic instead of silently
// defaulting to "all cores" / the default block size.
func TestNegativeConfigPanics(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"workers", Config{Trials: 4, Workers: -1}},
		{"block", Config{Trials: 4, Block: -2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("Config %+v did not panic", tc.cfg)
				}
			}()
			runBool(tc.cfg, func(*rng.RNG) bool { return true })
		})
	}
}
