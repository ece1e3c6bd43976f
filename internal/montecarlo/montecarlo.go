// Package montecarlo runs embarrassingly parallel randomized trials over a
// pool of worker goroutines.
//
// Every failure probability in Pippenger & Lin (Lemmas 3–7, Theorem 2) is
// estimated here by repeated independent trials. Trials receive pure
// per-index RNG streams (rng.Stream), so results are bit-for-bit
// reproducible no matter how many workers run or how the scheduler
// interleaves them. Workers claim trials in contiguous blocks (Config.
// Block), which lets scratch values that implement BlockStarter precompute
// a whole block at once — the hook behind the batched fault-injection
// engine — without affecting any trial's randomness or outcome.
package montecarlo

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"ftcsn/internal/rng"
	"ftcsn/internal/stats"
)

// Config controls a Monte-Carlo run. Workers and Block are defaulted only
// on exactly 0; negative values panic at run start — a negative count is
// always a caller bug (a subtraction gone wrong, an unvalidated flag), and
// silently mapping it to "all cores" would mask it.
type Config struct {
	Trials  int
	Workers int    // 0 = GOMAXPROCS; < 0 panics
	Seed    uint64 // root seed; trial i uses rng.Stream(Seed, i)
	Block   int    // trials per scheduling block; 0 = DefaultBlock; < 0 panics
}

// DefaultBlock is the default scheduling block size. Blocks only set the
// granularity at which workers claim contiguous trial ranges (and at which
// BlockStarter scratches precompute); no trial's randomness or outcome
// depends on the block size.
const DefaultBlock = 32

func (c Config) workers() int {
	if c.Workers < 0 {
		panic(fmt.Sprintf("montecarlo: Config.Workers must be >= 0, got %d", c.Workers))
	}
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (c Config) block() int {
	if c.Block < 0 {
		panic(fmt.Sprintf("montecarlo: Config.Block must be >= 0, got %d", c.Block))
	}
	if c.Block > 0 {
		return c.Block
	}
	return DefaultBlock
}

// BlockStarter is implemented by worker scratch values that precompute
// state for a whole contiguous block of trials — e.g. evaluators backed by
// fault.BatchInjector, which draw a block's failure positions in one sweep
// and then advance trial-to-trial by diffs. StartBlock(seed, first, n) is
// called on the claiming worker's scratch before that worker runs trials
// first..first+n-1; the harness still reseeds the trial RNG to
// rng.Stream(seed, first+j) for trial first+j, so per-trial determinism is
// independent of block size and worker count.
type BlockStarter interface {
	StartBlock(seed, first uint64, n int)
}

// RunBool estimates P[trial] over cfg.Trials independent trials and
// returns the success proportion.
func RunBool(cfg Config, trial func(r *rng.RNG) bool) stats.Proportion {
	return RunBoolWith(cfg, func() struct{} { return struct{}{} },
		func(r *rng.RNG, _ struct{}) bool { return trial(r) })
}

// RunBoolWith is RunBool with worker-local scratch: each worker calls
// newScratch once and passes the same value to every one of its trials, so
// trial bodies can reuse buffers (fault instances, masks, routers) and run
// allocation-free in steady state. Results are identical to RunBool for a
// pure trial function: trial i still sees the stream rng.Stream(cfg.Seed, i)
// and proportions merge commutatively.
func RunBoolWith[S any](cfg Config, newScratch func() S, trial func(r *rng.RNG, s S) bool) stats.Proportion {
	perWorker := make([]stats.Proportion, cfg.workers())
	parallelFor(cfg, newScratch, func(w int, r *rng.RNG, s S, i uint64) {
		perWorker[w].Add(trial(r, s))
	})
	var total stats.Proportion
	for _, p := range perWorker {
		total.Merge(p)
	}
	return total
}

// RunSampleWith accumulates a numeric statistic over cfg.Trials trials
// with worker-local scratch (see RunBoolWith): per-worker samples merge
// into one.
func RunSampleWith[S any](cfg Config, newScratch func() S, trial func(r *rng.RNG, s S) float64) stats.Sample {
	perWorker := make([]stats.Sample, cfg.workers())
	parallelFor(cfg, newScratch, func(w int, r *rng.RNG, s S, i uint64) {
		perWorker[w].Add(trial(r, s))
	})
	var total stats.Sample
	for w := range perWorker {
		total.Merge(&perWorker[w])
	}
	return total
}

// RunWith runs cfg.Trials trials with worker-local scratch and no built-in
// statistic: trials fold whatever they measure into their scratch value, and
// the per-worker scratches are returned for caller-side reduction. The
// trial index is passed so bodies that derive per-trial seeds beyond the
// harness stream can do so reproducibly. This is the engine behind
// multi-statistic experiments (e.g. the Theorem-2 pipeline, which
// accumulates success, certificate, and churn counters in one pass).
// Reductions must be order-insensitive (counts, sums, extrema) because
// trials are distributed dynamically across workers.
func RunWith[S any](cfg Config, newScratch func() S, trial func(r *rng.RNG, s S, i uint64)) []S {
	return parallelFor(cfg, newScratch, func(w int, r *rng.RNG, s S, i uint64) {
		trial(r, s, i)
	})
}

// parallelFor executes body(worker, r, scratch, trialIndex) for every trial
// index on a worker pool with dynamic (atomic counter) load balancing over
// contiguous blocks of cfg.Block trials. Each worker owns one scratch value
// and one RNG, reseeded in place per trial to the pure per-index stream, so
// no per-trial allocation occurs in the harness itself and results are
// independent of worker count and block size. Scratches implementing
// BlockStarter are notified before each claimed block.
func parallelFor[S any](cfg Config, newScratch func() S, body func(worker int, r *rng.RNG, s S, trial uint64)) []S {
	workers := cfg.workers()
	block := cfg.block()
	if cfg.Block == 0 && cfg.Trials > 0 {
		// A defaulted block size shrinks so every worker has a block to
		// claim — block size never affects any trial's outcome, only the
		// scheduling granularity.
		if perWorker := (cfg.Trials + workers - 1) / workers; perWorker < block {
			block = perWorker
		}
	}
	numBlocks := (cfg.Trials + block - 1) / block
	if cfg.Trials > 0 && workers > numBlocks {
		// Never spin up more workers (each paying for a full scratch —
		// possibly a materialized evaluator) than there are blocks to claim.
		workers = numBlocks
	}
	scratches := make([]S, workers)
	if cfg.Trials <= 0 {
		return scratches
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			s := newScratch()
			scratches[w] = s
			starter, _ := any(s).(BlockStarter)
			workerLoop(cfg, w, int64(numBlocks), block, &next, s, starter, body)
		}(w)
	}
	wg.Wait()
	return scratches
}

// workerLoop is one worker's trial-claiming loop: grab the next block off
// the shared counter, notify the BlockStarter, reseed the worker RNG to
// each trial's pure stream, run the body. This is the code every single
// Monte-Carlo trial in the repository passes through, split out of
// parallelFor's per-run scaffolding so the static hotpath gate covers it:
// an allocation here multiplies by cfg.Trials, not by runs.
//
//ftcsn:hotpath the per-trial claim loop; must stay allocation-free in steady state
func workerLoop[S any](cfg Config, w int, numBlocks int64, block int, next *atomic.Int64, s S, starter BlockStarter, body func(worker int, r *rng.RNG, s S, trial uint64)) {
	var r rng.RNG
	for {
		b := next.Add(1) - 1
		if b >= numBlocks {
			return
		}
		first := int(b) * block
		end := first + block
		if end > cfg.Trials {
			end = cfg.Trials
		}
		if starter != nil {
			//ftlint:ignore hotpath cold edge: once per block of cfg.Block trials, block setup grows scratch to a high-water mark and validates the fault model
			starter.StartBlock(cfg.Seed, uint64(first), end-first)
		}
		for i := first; i < end; i++ {
			r.ReseedStream(cfg.Seed, uint64(i))
			body(w, &r, s, uint64(i))
		}
	}
}
