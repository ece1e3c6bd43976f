package netsim

import (
	"fmt"
	"math"

	"ftcsn/internal/rng"
)

// Arrival is one session-arrival event in virtual time: a connect
// request for (In, Out) arriving at time At that, if admitted, holds its
// circuit for Hold time units. The arrival carries its own departure —
// the serve loop schedules the matching release at At+Hold on admission
// — so one Arrival value describes the session's full (arrival,
// departure) event pair.
type Arrival struct {
	At   float64 // virtual arrival time, non-decreasing across a stream
	Hold float64 // holding time; departure is at At + Hold
	In   int32   // requested input terminal
	Out  int32   // requested output terminal
}

// Source is the traffic seam: a deterministic stream of timestamped
// arrivals. Next fills *a and reports whether an event was produced;
// once it returns false the stream is over. Implementations must emit
// non-decreasing At values and must be deterministic — same constructed
// state, same stream, bit for bit. Sources are pull-driven and
// single-consumer; they are not safe for concurrent use.
type Source interface {
	Next(a *Arrival) bool
}

// ArrivalProcess generates inter-arrival gaps. NextGap draws from r and
// returns the strictly positive virtual-time gap to the next arrival;
// now is the current virtual time, so time-varying processes (diurnal
// modulation) can condition on it. Implementations may keep state (MMPP
// phase) but must draw only from r.
type ArrivalProcess interface {
	NextGap(r *rng.RNG, now float64) float64
}

// HoldingDist generates session holding times, drawing only from r.
type HoldingDist interface {
	NextHold(r *rng.RNG) float64
}

// Pattern generates destination pairs — which input calls which output —
// drawing only from r.
type Pattern interface {
	NextPair(r *rng.RNG) (in, out int32)
}

// Resetter is implemented by stateful traffic components (MMPP phase,
// lazily drawn permutations). TrafficSource.Reset calls it so a reseeded
// source replays its stream from the post-construction state.
type Resetter interface {
	ResetState()
}

// TrafficSource composes an arrival process, a holding-time
// distribution, and a destination pattern into a Source. All three draw
// from the single owned rng stream in a fixed per-event order — gap,
// hold, pair — so a (seed, config) pair reproduces the event stream bit
// for bit regardless of how the pieces are mixed.
type TrafficSource struct {
	r    rng.RNG
	arr  ArrivalProcess
	hold HoldingDist
	pat  Pattern
	now  float64
}

// NewTrafficSource builds a source emitting an unbounded arrival stream
// (bound it with ServeConfig.Horizon or MaxArrivals). Panics if any
// component is nil.
func NewTrafficSource(seed uint64, arr ArrivalProcess, hold HoldingDist, pat Pattern) *TrafficSource {
	if arr == nil || hold == nil || pat == nil {
		panic("netsim: NewTrafficSource with nil component")
	}
	s := &TrafficSource{arr: arr, hold: hold, pat: pat}
	s.r.Reseed(seed)
	return s
}

// Next emits the next arrival. A TrafficSource stream never ends.
func (s *TrafficSource) Next(a *Arrival) bool {
	s.now += s.arr.NextGap(&s.r, s.now)
	a.At = s.now
	a.Hold = s.hold.NextHold(&s.r)
	a.In, a.Out = s.pat.NextPair(&s.r)
	return true
}

// Reset rewinds the source to its post-construction state under the
// given seed: the virtual clock returns to zero and every stateful
// component (see Resetter) is re-armed, so the next stream replays bit
// for bit.
//
//ftlint:ignore deadexport BenchmarkOpenLoopServe (gated in BENCH.json) replays one source per iteration without allocating
func (s *TrafficSource) Reset(seed uint64) {
	s.r.Reseed(seed)
	s.now = 0
	if rs, ok := s.arr.(Resetter); ok {
		rs.ResetState()
	}
	if rs, ok := s.hold.(Resetter); ok {
		rs.ResetState()
	}
	if rs, ok := s.pat.(Resetter); ok {
		rs.ResetState()
	}
}

// expDraw draws an Exp(rate) variate. 1-Float64 keeps the argument of
// Log strictly positive (Float64 is in [0, 1)).
func expDraw(r *rng.RNG, rate float64) float64 {
	return -math.Log(1-r.Float64()) / rate
}

// --- arrival processes ------------------------------------------------------

// Poisson is a homogeneous Poisson arrival process: i.i.d. exponential
// gaps at the given rate. One draw per event.
type Poisson struct {
	rate float64
}

// NewPoisson builds a Poisson process with the given arrival rate
// (events per unit virtual time). Panics unless rate is finite and > 0:
// an infinite rate draws only zero gaps, so virtual time would never
// advance.
func NewPoisson(rate float64) Poisson {
	if !(rate > 0) || math.IsInf(rate, 1) {
		panic(fmt.Sprintf("netsim: NewPoisson rate %v, want finite and > 0", rate))
	}
	return Poisson{rate: rate}
}

// NextGap draws one exponential gap.
func (p Poisson) NextGap(r *rng.RNG, now float64) float64 {
	return expDraw(r, p.rate)
}

// MMPP is a two-state Markov-modulated Poisson process — the standard
// bursty-traffic model: arrivals are Poisson at baseRate in the quiet
// state and burstRate in the burst state, with exponentially distributed
// state sojourns. Gaps are drawn by competing exponentials: within the
// remaining sojourn the current rate wins, otherwise the leftover sojourn
// elapses, the state flips, and the draw repeats.
type MMPP struct {
	baseRate, burstRate float64
	meanBase, meanBurst float64
	inBurst             bool
	sojourn             float64 // remaining time in the current state; 0 = draw lazily
}

// NewMMPP builds a bursty arrival process starting in the quiet (base)
// state. Rates are arrivals per unit time in each state (at least one
// must be positive); means are the expected state sojourns (both must be
// positive).
func NewMMPP(baseRate, burstRate, meanBase, meanBurst float64) *MMPP {
	if baseRate < 0 || burstRate < 0 || baseRate+burstRate <= 0 {
		panic(fmt.Sprintf("netsim: NewMMPP rates (%v, %v), want non-negative with a positive sum", baseRate, burstRate))
	}
	if !(meanBase > 0) || !(meanBurst > 0) {
		panic(fmt.Sprintf("netsim: NewMMPP sojourn means (%v, %v), want > 0", meanBase, meanBurst))
	}
	return &MMPP{baseRate: baseRate, burstRate: burstRate, meanBase: meanBase, meanBurst: meanBurst}
}

// NextGap draws the gap to the next arrival, crossing state boundaries
// as needed.
func (m *MMPP) NextGap(r *rng.RNG, now float64) float64 {
	total := 0.0
	for {
		rate, mean := m.baseRate, m.meanBase
		if m.inBurst {
			rate, mean = m.burstRate, m.meanBurst
		}
		if m.sojourn <= 0 {
			m.sojourn = expDraw(r, 1/mean)
		}
		if rate > 0 {
			g := expDraw(r, rate)
			if g < m.sojourn {
				m.sojourn -= g
				return total + g
			}
		}
		total += m.sojourn
		m.sojourn = 0
		m.inBurst = !m.inBurst
	}
}

// ResetState returns the process to the quiet state with no sojourn
// drawn (the post-construction state).
func (m *MMPP) ResetState() {
	m.inBurst = false
	m.sojourn = 0
}

// Diurnal is a sinusoidally modulated (inhomogeneous) Poisson process:
// rate(t) = base · (1 + depth·sin(2πt/period)). Gaps are drawn by
// Lewis–Shedler thinning against the peak rate base·(1+depth), so the
// process is exact, not a discretization.
type Diurnal struct {
	base, depth, period float64
}

// NewDiurnal builds a diurnally modulated arrival process. base is the
// mean rate (> 0), depth the modulation amplitude in [0, 1], period the
// virtual-time length of one cycle (> 0).
func NewDiurnal(base, depth, period float64) Diurnal {
	if !(base > 0) {
		panic(fmt.Sprintf("netsim: NewDiurnal base rate %v, want > 0", base))
	}
	if depth < 0 || depth > 1 {
		panic(fmt.Sprintf("netsim: NewDiurnal depth %v, want in [0, 1]", depth))
	}
	if !(period > 0) {
		panic(fmt.Sprintf("netsim: NewDiurnal period %v, want > 0", period))
	}
	return Diurnal{base: base, depth: depth, period: period}
}

// NextGap draws the gap to the next accepted (thinned) arrival.
func (d Diurnal) NextGap(r *rng.RNG, now float64) float64 {
	peak := d.base * (1 + d.depth)
	t := now
	for {
		t += expDraw(r, peak)
		rate := d.base * (1 + d.depth*math.Sin(2*math.Pi*t/d.period))
		if r.Float64()*peak < rate {
			return t - now
		}
	}
}

// --- holding-time distributions ---------------------------------------------

// ExpHolding draws exponential holding times — the memoryless M/M/·
// baseline.
type ExpHolding struct {
	mean float64
}

// NewExpHolding builds an exponential holding-time distribution with the
// given mean (> 0).
func NewExpHolding(mean float64) ExpHolding {
	if !(mean > 0) {
		panic(fmt.Sprintf("netsim: NewExpHolding mean %v, want > 0", mean))
	}
	return ExpHolding{mean: mean}
}

// NextHold draws one holding time.
func (e ExpHolding) NextHold(r *rng.RNG) float64 {
	return expDraw(r, 1/e.mean)
}

// LognormalHolding draws lognormal holding times — right-skewed session
// lengths with all moments finite. The mean is exp(mu + sigma²/2).
type LognormalHolding struct {
	mu, sigma float64
}

// NewLognormalHolding builds a lognormal holding-time distribution from
// the log-space location mu and scale sigma (>= 0).
func NewLognormalHolding(mu, sigma float64) LognormalHolding {
	if sigma < 0 {
		panic(fmt.Sprintf("netsim: NewLognormalHolding sigma %v, want >= 0", sigma))
	}
	return LognormalHolding{mu: mu, sigma: sigma}
}

// NextHold draws one holding time.
func (l LognormalHolding) NextHold(r *rng.RNG) float64 {
	return math.Exp(l.mu + l.sigma*r.NormFloat64())
}

// ParetoHolding draws Pareto (heavy-tail) holding times: a few sessions
// hold circuits far longer than the mean, the regime where live-circuit
// peaks diverge from offered load. Mean is scale·shape/(shape-1) for
// shape > 1, infinite otherwise.
type ParetoHolding struct {
	shape, scale float64
}

// NewParetoHolding builds a Pareto holding-time distribution with the
// given tail index shape (> 0) and minimum value scale (> 0).
func NewParetoHolding(shape, scale float64) ParetoHolding {
	if !(shape > 0) || !(scale > 0) {
		panic(fmt.Sprintf("netsim: NewParetoHolding (shape %v, scale %v), want both > 0", shape, scale))
	}
	return ParetoHolding{shape: shape, scale: scale}
}

// NextHold draws one holding time.
func (p ParetoHolding) NextHold(r *rng.RNG) float64 {
	return p.scale * math.Pow(1-r.Float64(), -1/p.shape)
}

// --- destination patterns ---------------------------------------------------

// UniformPattern draws (input, output) pairs uniformly and independently
// — BookSim's "uniform random" traffic.
type UniformPattern struct {
	ins, outs []int32
}

// NewUniformPattern builds a uniform destination pattern over the given
// terminal sets (both non-empty; slices are copied).
func NewUniformPattern(inputs, outputs []int32) *UniformPattern {
	if len(inputs) == 0 || len(outputs) == 0 {
		panic("netsim: NewUniformPattern with empty terminal set")
	}
	p := &UniformPattern{ins: make([]int32, len(inputs)), outs: make([]int32, len(outputs))}
	copy(p.ins, inputs)
	copy(p.outs, outputs)
	return p
}

// NextPair draws one pair (two draws: input, then output).
func (p *UniformPattern) NextPair(r *rng.RNG) (int32, int32) {
	return p.ins[r.Intn(len(p.ins))], p.outs[r.Intn(len(p.outs))]
}

// HotspotPattern draws inputs uniformly but routes a fixed fraction of
// traffic to a small hot set of outputs (the first hotCount outputs) —
// BookSim's hotspot traffic, the classic contention stressor.
type HotspotPattern struct {
	ins, outs []int32
	hotCount  int
	hotFrac   float64
}

// NewHotspotPattern builds a hotspot pattern: with probability hotFrac
// the output is drawn uniformly from outputs[:hotCount], otherwise from
// all outputs. Slices are copied.
func NewHotspotPattern(inputs, outputs []int32, hotCount int, hotFrac float64) *HotspotPattern {
	if len(inputs) == 0 || len(outputs) == 0 {
		panic("netsim: NewHotspotPattern with empty terminal set")
	}
	if hotCount <= 0 || hotCount > len(outputs) {
		panic(fmt.Sprintf("netsim: NewHotspotPattern hotCount %d, want in [1, %d]", hotCount, len(outputs)))
	}
	if !(hotFrac >= 0 && hotFrac <= 1) {
		panic(fmt.Sprintf("netsim: NewHotspotPattern hotFrac %v, want in [0, 1]", hotFrac))
	}
	p := &HotspotPattern{ins: make([]int32, len(inputs)), outs: make([]int32, len(outputs)), hotCount: hotCount, hotFrac: hotFrac}
	copy(p.ins, inputs)
	copy(p.outs, outputs)
	return p
}

// NextPair draws one pair (three draws: input, hot coin, output).
func (p *HotspotPattern) NextPair(r *rng.RNG) (int32, int32) {
	in := p.ins[r.Intn(len(p.ins))]
	n := len(p.outs)
	if r.Bernoulli(p.hotFrac) {
		n = p.hotCount
	}
	return in, p.outs[r.Intn(n)]
}

// PermutationPattern fixes a random one-to-one mapping from inputs to
// outputs and draws inputs uniformly — BookSim's permutation traffic,
// the regime the paper's §4 routing theorem is actually about. The
// permutation itself is drawn (Fisher–Yates) from the shared stream on
// first use, so it is part of the seeded, reproducible state.
type PermutationPattern struct {
	ins, outs []int32
	perm      []int32 // perm[i] = index into outs assigned to ins[i]
	idx       []int32 // scratch for the Fisher–Yates prefix draw
	drawn     bool
}

// NewPermutationPattern builds a permutation pattern. Requires
// 0 < len(inputs) <= len(outputs); when outputs is strictly larger the
// mapping is a random injection. Slices are copied.
func NewPermutationPattern(inputs, outputs []int32) *PermutationPattern {
	if len(inputs) == 0 {
		panic("netsim: NewPermutationPattern with empty input set")
	}
	if len(inputs) > len(outputs) {
		panic(fmt.Sprintf("netsim: NewPermutationPattern with %d inputs > %d outputs", len(inputs), len(outputs)))
	}
	p := &PermutationPattern{
		ins:  make([]int32, len(inputs)),
		outs: make([]int32, len(outputs)),
		perm: make([]int32, len(inputs)),
		idx:  make([]int32, len(outputs)),
	}
	copy(p.ins, inputs)
	copy(p.outs, outputs)
	return p
}

// NextPair draws one pair (one draw per event, plus the one-time
// permutation draw on first use).
func (p *PermutationPattern) NextPair(r *rng.RNG) (int32, int32) {
	if !p.drawn {
		p.draw(r)
	}
	i := r.Intn(len(p.ins))
	return p.ins[i], p.outs[p.perm[i]]
}

// draw samples a uniform injection inputs→outputs as a Fisher–Yates
// prefix over the output indices.
func (p *PermutationPattern) draw(r *rng.RNG) {
	for j := range p.idx {
		p.idx[j] = int32(j)
	}
	for i := range p.perm {
		j := i + r.Intn(len(p.idx)-i)
		p.idx[i], p.idx[j] = p.idx[j], p.idx[i]
		p.perm[i] = p.idx[i]
	}
	p.drawn = true
}

// ResetState discards the drawn permutation so the next NextPair redraws
// it from the (reseeded) stream.
func (p *PermutationPattern) ResetState() { p.drawn = false }
