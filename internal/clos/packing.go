package clos

import (
	"fmt"
)

// Wide-sense nonblocking routing strategies on three-stage Clos networks.
//
// The paper (§2) distinguishes its "strictly nonblocking" networks from
// the weaker "wide-sense nonblocking" notion of Feldman, Friedman &
// Pippenger [FFP]: a wide-sense nonblocking network never blocks provided
// the ROUTER follows a prescribed strategy, whereas a strictly nonblocking
// network tolerates arbitrary (even adversarial) routing choices. The
// classic illustration is middle-switch selection on Clos networks with
// n₀ ≤ m < 2n₀−1: an arbitrary-choice router can be driven into blocking
// configurations that the PACKING strategy — always reuse the busiest
// usable middle switch — avoids for longer. StrategyRouter measures that
// gap empirically (experiment E13).

// Strategy selects a middle switch for a new circuit.
type Strategy int

// Middle-switch selection strategies.
const (
	// FirstFit takes the lowest-numbered usable middle (the adversary's
	// friend).
	FirstFit Strategy = iota
	// Packing takes the most-loaded usable middle, keeping spare middles
	// empty for future conflicts (the wide-sense strategy).
	Packing
	// Scatter takes the least-loaded usable middle (worst known strategy).
	Scatter
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case FirstFit:
		return "first-fit"
	case Packing:
		return "packing"
	case Scatter:
		return "scatter"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// StrategyRouter routes circuits on a three-stage Clos network with an
// explicit middle-selection strategy, tracking crossbar port occupancy
// exactly (a circuit claims one input port, one middle switch path, one
// output port).
type StrategyRouter struct {
	nw       *Network
	strategy Strategy
	// busyIn[g][j]: link from input crossbar g to middle j is held.
	busyIn  [][]bool
	busyOut [][]bool
	load    []int // circuits currently on middle j
	inBusy  []bool
	outBusy []bool
	circuit map[[2]int]int // (in,out) → middle
}

// NewStrategyRouter returns a router over nw with the given strategy.
func NewStrategyRouter(nw *Network, s Strategy) *StrategyRouter {
	r := &StrategyRouter{
		nw:       nw,
		strategy: s,
		busyIn:   make([][]bool, nw.R),
		busyOut:  make([][]bool, nw.R),
		load:     make([]int, nw.M),
		inBusy:   make([]bool, nw.N),
		outBusy:  make([]bool, nw.N),
		circuit:  make(map[[2]int]int),
	}
	for g := 0; g < nw.R; g++ {
		r.busyIn[g] = make([]bool, nw.M)
		r.busyOut[g] = make([]bool, nw.M)
	}
	return r
}

// Connect routes input in to output out, returning the chosen middle
// switch or an error when blocked.
func (r *StrategyRouter) Connect(in, out int) (int, error) {
	if in < 0 || in >= r.nw.N || out < 0 || out >= r.nw.N {
		return 0, fmt.Errorf("clos: terminal out of range")
	}
	if r.inBusy[in] || r.outBusy[out] {
		return 0, fmt.Errorf("clos: terminal busy")
	}
	g := in / r.nw.N0
	h := out / r.nw.N0
	best := -1
	for j := 0; j < r.nw.M; j++ {
		if r.busyIn[g][j] || r.busyOut[h][j] {
			continue
		}
		if best < 0 {
			best = j
			if r.strategy == FirstFit {
				break
			}
			continue
		}
		switch r.strategy {
		case Packing:
			if r.load[j] > r.load[best] {
				best = j
			}
		case Scatter:
			if r.load[j] < r.load[best] {
				best = j
			}
		}
	}
	if best < 0 {
		return 0, fmt.Errorf("clos: blocked: no middle free for crossbars (%d,%d)", g, h)
	}
	r.busyIn[g][best] = true
	r.busyOut[h][best] = true
	r.load[best]++
	r.inBusy[in] = true
	r.outBusy[out] = true
	r.circuit[[2]int{in, out}] = best
	return best, nil
}

// Disconnect releases the circuit (in, out).
func (r *StrategyRouter) Disconnect(in, out int) error {
	j, ok := r.circuit[[2]int{in, out}]
	if !ok {
		return fmt.Errorf("clos: no circuit (%d,%d)", in, out)
	}
	delete(r.circuit, [2]int{in, out})
	g := in / r.nw.N0
	h := out / r.nw.N0
	r.busyIn[g][j] = false
	r.busyOut[h][j] = false
	r.load[j]--
	r.inBusy[in] = false
	r.outBusy[out] = false
	return nil
}
