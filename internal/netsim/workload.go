package netsim

// Workload is the closed-loop churn generator — the feedback-coupled
// counterpart of the open-loop Source seam (source.go): instead of
// timestamped arrivals drawn independently of the network, it emits
// connect batches and release picks whose composition depends on the
// engine's own accept/reject decisions, the Theorem-2 churn protocol.
// It is engine-agnostic — the same stream drives the sequential
// route.Router and route.ShardedEngine — which is what the differential
// harnesses lean on: identical decisions imply identical subsequent
// workload, so decision streams of two engines can be compared step by
// step under arbitrary churn.
//
// The generator owns the idle/live bookkeeping: NextConnects draws
// endpoint-distinct requests from the idle pools, Commit feeds decisions
// back (accepted circuits go live, rejected endpoints return to idle), and
// NextReleases picks live circuits to tear down. All randomness comes from
// one rng stream seeded at construction, so a workload is reproducible
// bit-for-bit given the same decision feedback.

import (
	"ftcsn/internal/rng"
	"ftcsn/internal/route"
)

type liveCircuit struct{ in, out int32 }

// Workload generates operational connect/release churn. Not safe for
// concurrent use.
type Workload struct {
	r       rng.RNG
	idleIn  []int32
	idleOut []int32
	live    []liveCircuit

	reqs []route.Request // last NextConnects batch (Commit consumes it)
	rels []route.Request // NextReleases scratch
}

// NewWorkload returns a workload over the given terminal sets, seeded
// deterministically.
func NewWorkload(inputs, outputs []int32, seed uint64) *Workload {
	w := &Workload{
		idleIn:  append([]int32(nil), inputs...),
		idleOut: append([]int32(nil), outputs...),
	}
	w.r.Reseed(seed)
	return w
}

// Live returns the number of live circuits.
func (w *Workload) Live() int { return len(w.live) }

// Idle returns the number of idle input terminals.
func (w *Workload) Idle() int { return len(w.idleIn) }

// NextConnects draws up to k connect requests with distinct idle
// endpoints, removing them from the idle pools. The batch stays pending
// until Commit reports the decisions. The returned slice is reused by the
// next call.
func (w *Workload) NextConnects(k int) []route.Request {
	if len(w.reqs) != 0 {
		panic("netsim: NextConnects before Commit of the previous batch")
	}
	w.reqs = w.reqs[:0]
	for len(w.reqs) < k && len(w.idleIn) > 0 && len(w.idleOut) > 0 {
		ii := w.r.Intn(len(w.idleIn))
		oo := w.r.Intn(len(w.idleOut))
		in, out := w.idleIn[ii], w.idleOut[oo]
		w.idleIn[ii] = w.idleIn[len(w.idleIn)-1]
		w.idleIn = w.idleIn[:len(w.idleIn)-1]
		w.idleOut[oo] = w.idleOut[len(w.idleOut)-1]
		w.idleOut = w.idleOut[:len(w.idleOut)-1]
		w.reqs = append(w.reqs, route.Request{In: in, Out: out})
	}
	return w.reqs
}

// Commit feeds the engine's decisions for the pending batch back:
// request i was accepted iff res[i].Path != nil — the route.Result
// convention every engine produces, so the engine's ConnectBatch output
// (or a prefix covering the batch) is passed straight through. Accepted
// circuits go live; rejected endpoints return to the idle pools.
func (w *Workload) Commit(res []route.Result) {
	if len(res) < len(w.reqs) {
		panic("netsim: Commit with fewer results than pending requests")
	}
	for i, rq := range w.reqs {
		if res[i].Path != nil {
			w.live = append(w.live, liveCircuit{rq.In, rq.Out})
		} else {
			w.idleIn = append(w.idleIn, rq.In)
			w.idleOut = append(w.idleOut, rq.Out)
		}
	}
	w.reqs = w.reqs[:0]
}

// NextReleases removes up to k uniformly chosen live circuits and returns
// them as (In, Out) pairs for the caller to tear down. The returned slice
// is reused by the next call.
func (w *Workload) NextReleases(k int) []route.Request {
	w.rels = w.rels[:0]
	for len(w.rels) < k && len(w.live) > 0 {
		ci := w.r.Intn(len(w.live))
		c := w.live[ci]
		w.live[ci] = w.live[len(w.live)-1]
		w.live = w.live[:len(w.live)-1]
		w.idleIn = append(w.idleIn, c.in)
		w.idleOut = append(w.idleOut, c.out)
		w.rels = append(w.rels, route.Request{In: c.in, Out: c.out})
	}
	return w.rels
}
