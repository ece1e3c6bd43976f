package netsim

import (
	"errors"
	"fmt"
	"math"

	"ftcsn/internal/route"
	"ftcsn/internal/stats"
)

// DefaultMaxBatch bounds how many due arrivals one ConnectBatch call may
// carry when ServeConfig.MaxBatch is zero. Matches the churn driver's
// batch cap: large enough to amortize per-batch overhead, small enough
// that events-behind latency stays meaningful.
const DefaultMaxBatch = 64

// ServeConfig bounds and instruments an open-loop serving run. At least
// one of Horizon and MaxArrivals must be positive.
type ServeConfig struct {
	// Horizon stops the run at this virtual time: arrivals after it are
	// discarded and only departures due by it are drained. Zero means
	// unbounded (MaxArrivals must then be set).
	Horizon float64
	// MaxArrivals stops the run after ingesting this many arrivals.
	// Zero means unbounded (Horizon must then be set). When the stream
	// ends this way, all scheduled departures within Horizon drain.
	MaxArrivals int64
	// MaxBatch caps arrivals per ConnectBatch call (0 → DefaultMaxBatch).
	MaxBatch int
	// ReportEvery, when positive with OnReport set, invokes OnReport at
	// every multiple of this virtual-time interval (between batches, so
	// a report boundary never splits a batch).
	ReportEvery float64
	// OnReport receives the boundary's virtual time and the live SLO;
	// callers typically take slo.Window() and print it.
	OnReport func(t float64, slo *stats.SLO)
}

// departure is a scheduled circuit release. seq breaks virtual-time ties
// deterministically in admission order.
type departure struct {
	at      float64
	seq     uint64
	in, out int32
}

func depLess(a, b departure) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Loop is a reusable open-loop serving loop: it owns the departure heap
// and batch scratch, so a warm Loop serves an entire run with zero
// steady-state allocations per event. The zero value is ready for use;
// Serve may be called repeatedly (state is reset each call). Not safe
// for concurrent use.
type Loop struct {
	deps   []departure // min-heap on (at, seq)
	reqs   []route.Request
	res    []route.Result
	ats    []float64
	holds  []float64
	next   Arrival
	have   bool
	done   bool
	depSeq uint64
	pulled int64
}

// Serve runs one open-loop session against eng: arrivals pulled from src
// are batched into ConnectBatch calls under a virtual clock, admissions
// schedule their departures at At+Hold, and every event is recorded in
// slo. Batches are cut so that no scheduled departure falls strictly
// inside one — engine state at each decision is exactly what a one-
// event-at-a-time replay would produce, so (route.Engine's sequential
// batch semantics) the decision stream is independent of MaxBatch. At
// equal virtual times departures commit before arrivals (a freed circuit
// is reusable by a simultaneous request). Virtual time only: Serve never
// reads the wall clock, so a (seed, config) pair reproduces the run bit
// for bit.
//
// The engine should start with no live circuits (call Reset first if
// reusing one); circuits still live at the end of the run are left in
// place.
func (l *Loop) Serve(eng route.Engine, src Source, cfg ServeConfig, slo *stats.SLO) error {
	if eng == nil || src == nil || slo == nil {
		return errors.New("netsim: Serve with nil engine, source, or slo")
	}
	if cfg.Horizon < 0 || cfg.MaxArrivals < 0 || cfg.MaxBatch < 0 || cfg.ReportEvery < 0 {
		return errors.New("netsim: ServeConfig with negative field")
	}
	if cfg.Horizon == 0 && cfg.MaxArrivals == 0 {
		return errors.New("netsim: ServeConfig needs Horizon or MaxArrivals")
	}
	horizon := cfg.Horizon
	if horizon == 0 {
		horizon = math.Inf(1)
	}
	maxArr := cfg.MaxArrivals
	if maxArr == 0 {
		maxArr = math.MaxInt64
	}
	maxBatch := cfg.MaxBatch
	if maxBatch == 0 {
		maxBatch = DefaultMaxBatch
	}
	l.deps = l.deps[:0]
	l.have = false
	l.done = false
	l.depSeq = 0
	l.pulled = 0
	l.run(eng, src, horizon, maxArr, maxBatch, cfg.ReportEvery, cfg.OnReport, slo)
	return nil
}

// Serve runs one open-loop session with a fresh Loop; see Loop.Serve.
func Serve(eng route.Engine, src Source, cfg ServeConfig, slo *stats.SLO) error {
	var l Loop
	return l.Serve(eng, src, cfg, slo)
}

// run is the event loop proper. Split from Serve so the cold
// validation/reset prologue stays off the annotated hot path.
//
//ftcsn:hotpath the open-loop event loop: every arrival and departure of a serving run passes through here
func (l *Loop) run(eng route.Engine, src Source, horizon float64, maxArr int64, maxBatch int, reportEvery float64, onReport func(float64, *stats.SLO), slo *stats.SLO) {
	nextReport := math.Inf(1)
	if reportEvery > 0 && onReport != nil {
		nextReport = reportEvery
	}
	for {
		l.pull(src, horizon, maxArr)
		if !l.have {
			break
		}
		// Departures due by the next arrival commit first (ties go to
		// the departure: its circuit is free for the simultaneous
		// arrival).
		for len(l.deps) > 0 && l.deps[0].at <= l.next.At {
			d := l.popDep()
			l.disconnect(eng, d)
			slo.ObserveRelease(d.at)
		}
		// Collect a batch: consecutive arrivals with no departure —
		// pending or newly scheduled — due strictly before the last of
		// them, so batching never reorders events.
		l.reqs = l.reqs[:0]
		l.ats = l.ats[:0]
		l.holds = l.holds[:0]
		minDep := math.Inf(1)
		if len(l.deps) > 0 {
			minDep = l.deps[0].at
		}
		for {
			a := l.next
			l.have = false
			l.reqs = append(l.reqs, route.Request{In: a.In, Out: a.Out})
			l.ats = append(l.ats, a.At)
			l.holds = append(l.holds, a.Hold)
			if dep := a.At + a.Hold; dep < minDep {
				minDep = dep
			}
			if len(l.reqs) >= maxBatch {
				break
			}
			l.pull(src, horizon, maxArr)
			if !l.have || l.next.At >= minDep {
				break
			}
		}
		// Serve the batch; position from the batch tail is the
		// events-behind connect latency.
		l.res = eng.ConnectBatch(l.reqs, l.res)
		k := len(l.reqs)
		for i := 0; i < k; i++ {
			accepted := l.res[i].Path != nil
			slo.ObserveConnect(l.ats[i], l.holds[i], uint64(k-1-i), accepted)
			if accepted {
				l.pushDep(departure{at: l.ats[i] + l.holds[i], seq: l.depSeq, in: l.reqs[i].In, out: l.reqs[i].Out})
				l.depSeq++
			}
		}
		for t := l.ats[k-1]; nextReport <= t; nextReport += reportEvery {
			onReport(nextReport, slo)
		}
	}
	// Stream over: drain departures due by the horizon.
	for len(l.deps) > 0 && l.deps[0].at <= horizon {
		d := l.popDep()
		l.disconnect(eng, d)
		slo.ObserveRelease(d.at)
	}
}

// pull loads the next arrival into l.next unless one is already staged
// or the stream is exhausted (source end, arrival cap, or horizon — an
// arrival past the horizon ends the stream without being counted).
func (l *Loop) pull(src Source, horizon float64, maxArr int64) {
	if l.have || l.done {
		return
	}
	if l.pulled >= maxArr || !src.Next(&l.next) || l.next.At > horizon {
		l.done = true
		return
	}
	l.pulled++
	l.have = true
}

func (l *Loop) disconnect(eng route.Engine, d departure) {
	if err := eng.Disconnect(d.in, d.out); err != nil {
		//ftlint:ignore hotpath panic path: a scheduled departure exists only for a circuit this loop admitted
		panic(fmt.Sprintf("netsim: open-loop departure (%d, %d): %v", d.in, d.out, err))
	}
}

// pushDep inserts into the departure min-heap. Hand-rolled (vs
// container/heap) to keep the hot path free of interface boxing.
func (l *Loop) pushDep(d departure) {
	l.deps = append(l.deps, d)
	i := len(l.deps) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !depLess(l.deps[i], l.deps[p]) {
			break
		}
		l.deps[i], l.deps[p] = l.deps[p], l.deps[i]
		i = p
	}
}

// popDep removes and returns the earliest departure.
func (l *Loop) popDep() departure {
	top := l.deps[0]
	last := len(l.deps) - 1
	l.deps[0] = l.deps[last]
	l.deps = l.deps[:last]
	i := 0
	for {
		c := 2*i + 1
		if c >= last {
			break
		}
		if c+1 < last && depLess(l.deps[c+1], l.deps[c]) {
			c++
		}
		if !depLess(l.deps[c], l.deps[i]) {
			break
		}
		l.deps[i], l.deps[c] = l.deps[c], l.deps[i]
		i = c
	}
	return top
}
