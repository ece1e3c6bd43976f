package montecarlo

import (
	"sync/atomic"
	"testing"

	"ftcsn/internal/rng"
)

// TestRunBoolWithMatchesRunBool: for a pure trial function RunBoolWith
// must count exactly the successes of the plain sequential run — trial i
// on rng.Stream(seed, i) — at any worker count.
func TestRunBoolWithMatchesRunBool(t *testing.T) {
	const trials, seed = 5000, 99
	trial := func(r *rng.RNG) bool { return r.Float64() < 0.3 }
	want := 0
	for i := uint64(0); i < trials; i++ {
		if trial(rng.Stream(seed, i)) {
			want++
		}
	}
	for _, workers := range []int{1, 2, 7} {
		got := RunBoolWith(Config{Trials: trials, Workers: workers, Seed: seed},
			func() struct{} { return struct{}{} },
			func(r *rng.RNG, _ struct{}) bool { return trial(r) })
		if got.Trials != trials || got.Successes != want {
			t.Fatalf("workers=%d: %d of %d trials succeeded, sequential run %d of %d", workers, got.Successes, got.Trials, want, trials)
		}
	}
}

// TestRunWithWorkerLocalScratch exercises the worker-local scratch path
// under contention (meaningful with -race): every worker mutates only its
// own scratch, and the merged counters account for every trial exactly
// once.
func TestRunWithWorkerLocalScratch(t *testing.T) {
	type scratch struct {
		trials int
		sum    uint64
		seen   map[uint64]bool
	}
	const trials = 4000
	scs := RunWith(Config{Trials: trials, Workers: 8, Seed: 5},
		func() *scratch { return &scratch{seen: make(map[uint64]bool)} },
		func(r *rng.RNG, s *scratch, i uint64) {
			if s.seen[i] {
				t.Errorf("trial %d delivered twice to one worker", i)
			}
			s.seen[i] = true
			s.trials++
			s.sum += i
		})
	total, sum := 0, uint64(0)
	global := make(map[uint64]bool)
	for _, s := range scs {
		if s == nil {
			continue
		}
		total += s.trials
		sum += s.sum
		for i := range s.seen {
			if global[i] {
				t.Fatalf("trial %d ran on two workers", i)
			}
			global[i] = true
		}
	}
	if total != trials {
		t.Fatalf("merged trial count %d, want %d", total, trials)
	}
	if want := uint64(trials) * (trials - 1) / 2; sum != want {
		t.Fatalf("merged index sum %d, want %d", sum, want)
	}
}

// TestRunWithZeroTrials must not invoke trials or panic on merge.
func TestRunWithZeroTrials(t *testing.T) {
	var calls atomic.Int64
	scs := RunWith(Config{Trials: 0, Workers: 4, Seed: 1},
		func() int { return 0 },
		func(r *rng.RNG, s int, i uint64) { calls.Add(1) })
	if calls.Load() != 0 {
		t.Fatalf("trial ran %d times with Trials=0", calls.Load())
	}
	if len(scs) == 0 {
		t.Fatal("expected per-worker scratch slots even with no trials")
	}
}

// TestStreamReseedEquivalence: the in-place reseed must reproduce
// rng.Stream exactly — this is what makes worker-local RNG reuse
// bit-for-bit compatible with the allocating harness.
func TestStreamReseedEquivalence(t *testing.T) {
	var r rng.RNG
	for i := uint64(0); i < 100; i++ {
		r.ReseedStream(1234, i)
		fresh := rng.Stream(1234, i)
		for k := 0; k < 8; k++ {
			if a, b := r.Uint64(), fresh.Uint64(); a != b {
				t.Fatalf("stream %d draw %d: reseeded %x != fresh %x", i, k, a, b)
			}
		}
	}
}
