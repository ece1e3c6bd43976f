package core

import (
	"sync"

	"ftcsn/internal/arena"
)

// EvaluatorPool recycles per-worker scratch arenas across the networks of
// a multi-network experiment (E8's crossover sweep, E10's ablations). Each
// Monte-Carlo worker that needs an evaluator — or any other arena-backed
// scratch, via Get/Put — draws an arena from the pool; when the run over
// one network finishes, releasing the scratch returns its arena, Reset,
// for the next network's workers. The slabs converge to the sizes the
// largest graph needs, so a sweep over many networks allocates scratch
// roughly once instead of (networks × workers) times.
//
// Ownership rules (DESIGN.md §2.8):
//
//   - Get/NewEvaluator may be called concurrently (Monte-Carlo workers
//     construct their scratch inside worker goroutines); each arena handed
//     out is owned by exactly one scratch until returned.
//   - Put/Release reset the arena, invalidating every buffer of the
//     scratch built in it. Release the scratch only after the run is over
//     and its results have been folded out; using an Evaluator after
//     Release is a bug (its buffers now belong to someone else).
//   - Arena-backed constructors zero what they take, so a pooled
//     evaluator's trial outcomes are bit-identical to a fresh one's — the
//     determinism gate relies on this.
type EvaluatorPool struct {
	mu   sync.Mutex
	free []*arena.Arena

	created int
	reused  int
}

// NewEvaluatorPool returns an empty pool.
func NewEvaluatorPool() *EvaluatorPool { return &EvaluatorPool{} }

// Get hands out an owned arena (recycled when one is free).
func (p *EvaluatorPool) Get() *arena.Arena {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free); n > 0 {
		a := p.free[n-1]
		p.free = p.free[:n-1]
		p.reused++
		return a
	}
	p.created++
	return arena.New()
}

// Put resets a and returns it to the pool. Every slice taken from a is
// invalidated; the caller must have dropped the scratch built in it.
func (p *EvaluatorPool) Put(a *arena.Arena) {
	if a == nil {
		return
	}
	a.Reset()
	p.mu.Lock()
	p.free = append(p.free, a)
	p.mu.Unlock()
}

// Arenas reports how many arenas the pool has created and how many Get
// calls were served by recycling — the observability hook the pool tests
// (and curious benchmarks) read.
func (p *EvaluatorPool) Arenas() (created, reused int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.created, p.reused
}

// NewEvaluator returns an evaluator for nw whose buffers live in a pooled
// arena; hand it back with Evaluator.Release when the run is done.
func (p *EvaluatorPool) NewEvaluator(nw *Network) *Evaluator {
	a := p.Get()
	ev := NewEvaluatorIn(nw, a)
	ev.pool, ev.a = p, a
	return ev
}

// Release returns a pooled evaluator's arena to its pool (a no-op for
// unpooled evaluators). The evaluator must not be used afterwards: its
// buffers are recycled for the pool's next customer.
func (ev *Evaluator) Release() {
	if ev.pool == nil {
		return
	}
	pool, a := ev.pool, ev.a
	ev.pool, ev.a = nil, nil
	// Drop the buffer references so any use-after-release fails loudly
	// (nil deref) instead of corrupting a neighbor's arena. The churn
	// engine needs the same treatment: it holds the arena-backed mask
	// slices (SetMasksShared), and an externally installed engine
	// (SetChurnEngine) outlives the evaluator — detach them so a later
	// ConnectBatch panics instead of silently probing whoever owns the
	// recycled slabs next.
	ev.eng.SetMasksShared(nil, nil, nil)
	ev.inst, ev.fsc, ev.ac, ev.batch, ev.mu = nil, nil, nil, nil, nil
	ev.eng = nil
	ev.masks = Masks{}
	pool.Put(a)
}
