package netsim

// ChurnDriver is the batch-shaped form of the Theorem-2 trial pipeline's
// operational churn, a coin-flip op protocol — with probability 1/2
// connect a uniformly chosen idle input to a uniformly chosen idle output,
// otherwise release a uniformly chosen live circuit — with runs of
// consecutive connect decisions served as ONE route.Engine batch instead
// of one router call per op. That is the seam that puts the guided engine
// (route.ShardedEngine and its word-parallel routing guide) under the
// Monte-Carlo trial pipeline.
//
// The driver is bit-compatible with the per-op generator (one router call
// per op; the reference replay lives in churn_test.go): since every
// route.Engine has sequential-batch semantics, Run returns exactly the
// per-op (connects, failures, pathTotal) on the same RNG, every
// established circuit takes the identical path, and the generator's final
// RNG state matches — so Theorem-2 probability tables cannot move. Like
// the test-support netsimtest.Workload, the generator owns the idle/live
// bookkeeping; unlike Workload's free-form operational stream, this one
// replays a fixed protocol, which forces the batching to be speculative:
//
// Per-op, the RNG draws for op t+1 depend on op t's outcome (pool sizes
// and the live count feed the coin short-circuit and the Intn bounds), so
// a batch cannot simply be drawn ahead. Instead the driver draws a run of
// consecutive connect ops ASSUMING each is accepted — applying the
// accept's pool mutations speculatively and snapshotting the RNG after
// each op's draws — and hands the run to Engine.ConnectBatch. On a
// strictly nonblocking repaired network (the common case the pipeline
// certifies) every connect succeeds, the speculation is exact, and the
// whole run cost one engine batch. On the first rejected request j the
// speculation beyond j is wrong, and the driver rolls back precisely:
//
//   - engine circuits committed after j are disconnected (prefix
//     decisions 0..j are unaffected: sequential batch semantics make any
//     result prefix a function of the request prefix alone);
//   - the speculative pool mutations for requests j.. are inverted in
//     LIFO order (the exact inverse of the swap-removes, so pool ORDER is
//     restored, not just membership — Intn indexes depend on it);
//   - the RNG is restored to its snapshot right after op j's draws — the
//     per-op generator's exact resume point after a failed connect, which
//     mutates no pools.
//
// Generation then continues from op j+1 with the true state. Failures are
// rare under certified instances, so rollbacks amortize to noise; a wholly
// failing stream degenerates to per-op batches of one, never to wrong
// results.
//
// Between trials the caller advances the fault epoch before calling Run:
// apply the trial's diff through core.MaskUpdater and notify the engine —
// Engine.MasksChangedDiff with the updater's changed vertex/edge lists on
// the incremental path, or Engine.MasksChanged as the full-sweep fallback.
// Either notification yields bit-identical guides and hence bit-identical
// churn decisions (route's incremental-guide differentials); the driver
// itself never touches masks.

import (
	"fmt"

	"ftcsn/internal/rng"
	"ftcsn/internal/route"
)

type liveCircuit struct{ in, out int32 }

// churnBatchCap bounds one speculative connect run, and so the rollback
// scratch. The cap only splits batches, it cannot change any op's outcome
// (after a full-accept capped batch the next decision is drawn from
// exactly the state the uncapped run would have seen); it does set the
// batch shapes the trial pipeline serves.
const churnBatchCap = 64

// ChurnDriver holds the generator state and scratch; the zero value is
// ready to use and Run re-initializes the pools per call, so one driver
// serves many trials (and many networks) without allocating in steady
// state. Not safe for concurrent use.
type ChurnDriver struct {
	idleIn  []int32
	idleOut []int32
	live    []liveCircuit

	reqs   []route.Request
	res    []route.Result
	undoII []int32 // per speculative request: the Intn index drawn for its input
	undoOO []int32
	states []rng.State // per speculative request: RNG right after its draws
}

// Run drives eng with ops operations of the coin-flip churn protocol over
// the given terminal sets, batching connect runs, and returns the number
// of attempted connects, failed connects, and the summed path length of
// the successes — bit-identical to the per-op protocol on the same RNG.
// The engine must start with no live circuit on these terminals; circuits
// left live at the end belong to the caller (typically released by the
// next trial's engine Reset).
func (cd *ChurnDriver) Run(eng route.Engine, inputs, outputs []int32, ops int, r *rng.RNG) (connects, failures, pathTotal int) {
	cd.live = cd.live[:0]
	cd.idleIn = append(cd.idleIn[:0], inputs...)
	cd.idleOut = append(cd.idleOut[:0], outputs...)
	op := 0
	for op < ops {
		// The per-op decision, from true (committed) state. Short-circuit
		// order matters: it decides whether a coin is consumed.
		doConnect := len(cd.live) == 0 || (len(cd.idleIn) > 0 && r.Bernoulli(0.5))
		if !doConnect || len(cd.idleIn) == 0 || len(cd.idleOut) == 0 {
			if len(cd.live) > 0 {
				cd.releaseOne(eng, r)
			}
			op++
			continue
		}

		// Speculative connect run: op and the ops drawn below, assuming
		// acceptance of each.
		cd.reqs = cd.reqs[:0]
		cd.undoII = cd.undoII[:0]
		cd.undoOO = cd.undoOO[:0]
		cd.states = cd.states[:0]
		pendingRelease := false
		for {
			ii := r.Intn(len(cd.idleIn))
			oo := r.Intn(len(cd.idleOut))
			in, out := cd.idleIn[ii], cd.idleOut[oo]
			// Apply exactly the pool/live mutations of a successful per-op
			// connect (swap-remove both endpoints, push the circuit).
			cd.idleIn[ii] = cd.idleIn[len(cd.idleIn)-1]
			cd.idleIn = cd.idleIn[:len(cd.idleIn)-1]
			cd.idleOut[oo] = cd.idleOut[len(cd.idleOut)-1]
			cd.idleOut = cd.idleOut[:len(cd.idleOut)-1]
			cd.live = append(cd.live, liveCircuit{in, out})
			cd.reqs = append(cd.reqs, route.Request{In: in, Out: out})
			cd.undoII = append(cd.undoII, int32(ii))
			cd.undoOO = append(cd.undoOO, int32(oo))
			cd.states = append(cd.states, r.State())
			if op+len(cd.reqs) >= ops || len(cd.reqs) >= churnBatchCap ||
				len(cd.idleIn) == 0 || len(cd.idleOut) == 0 {
				// Ending the run before the speculative coin is consistent
				// with the per-op generator in every one of these states:
				// the outer loop re-draws the decision from true state, and
				// an empty pool there consumes either no coin (idleIn) or
				// the same one coin before releasing (idleOut).
				break
			}
			// Next op's coin, drawn speculatively. live > 0 and idleIn > 0
			// hold here, so the per-op generator consumes exactly this coin;
			// heads means the run continues, tails means a release follows
			// the batch. A rollback below re-draws it from the true state.
			if !r.Bernoulli(0.5) {
				pendingRelease = true
				break
			}
		}

		cd.res = eng.ConnectBatch(cd.reqs, cd.res)
		rejected := -1
		for i := range cd.reqs {
			if cd.res[i].Path == nil {
				rejected = i
				break
			}
		}
		if rejected < 0 {
			// Speculation exact: the whole run committed.
			connects += len(cd.reqs)
			for i := range cd.reqs {
				pathTotal += len(cd.res[i].Path) - 1
			}
			op += len(cd.reqs)
			if pendingRelease {
				cd.releaseOne(eng, r)
				op++
			}
			continue
		}

		// Request `rejected` failed: ops up to it stand (accepts committed,
		// the failed op mutates nothing), everything after was misdrawn.
		j := rejected
		connects += j + 1
		failures++
		for i := 0; i < j; i++ {
			pathTotal += len(cd.res[i].Path) - 1
		}
		// Undo engine commits past the failure point.
		for i := j + 1; i < len(cd.reqs); i++ {
			if cd.res[i].Path == nil {
				continue
			}
			if err := eng.Disconnect(cd.reqs[i].In, cd.reqs[i].Out); err != nil {
				//ftlint:ignore hotpath panic path: a rollback disconnect can only fail if the engine broke its own registry invariant
				panic(fmt.Sprintf("netsim: churn rollback disconnect: %v", err))
			}
		}
		// Invert the speculative pool mutations for requests j.. in LIFO
		// order: each step is the exact inverse of a swap-remove pair, so
		// pool contents AND order match the per-op generator's state right
		// after its failed connect (which leaves pools untouched).
		for i := len(cd.reqs) - 1; i >= j; i-- {
			cd.live = cd.live[:len(cd.live)-1]
			ii, oo := cd.undoII[i], cd.undoOO[i]
			cd.idleIn = cd.idleIn[:len(cd.idleIn)+1]
			cd.idleIn[len(cd.idleIn)-1] = cd.idleIn[ii]
			cd.idleIn[ii] = cd.reqs[i].In
			cd.idleOut = cd.idleOut[:len(cd.idleOut)+1]
			cd.idleOut[len(cd.idleOut)-1] = cd.idleOut[oo]
			cd.idleOut[oo] = cd.reqs[i].Out
		}
		op += j + 1
		r.SetState(cd.states[j])
	}
	return connects, failures, pathTotal
}

// releaseOne is the protocol's release op: tear down a uniformly chosen
// live circuit and return its endpoints to the idle pools.
func (cd *ChurnDriver) releaseOne(eng route.Engine, r *rng.RNG) {
	ci := r.Intn(len(cd.live))
	c := cd.live[ci]
	if err := eng.Disconnect(c.in, c.out); err == nil {
		cd.idleIn = append(cd.idleIn, c.in)
		cd.idleOut = append(cd.idleOut, c.out)
	}
	cd.live[ci] = cd.live[len(cd.live)-1]
	cd.live = cd.live[:len(cd.live)-1]
}
