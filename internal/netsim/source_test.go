package netsim_test

import (
	"math"
	"testing"

	"ftcsn/internal/netsim"
)

func smallTerminals(t *testing.T) (ins, outs []int32) {
	nw := buildSmall(t)
	return nw.Inputs(), nw.Outputs()
}

// sourceVariants covers every combinator: each arrival process, holding
// distribution, and destination pattern appears in at least one source.
func sourceVariants(t *testing.T) map[string]func() *netsim.TrafficSource {
	ins, outs := smallTerminals(t)
	return map[string]func() *netsim.TrafficSource{
		"poisson-exp-uniform": func() *netsim.TrafficSource {
			return netsim.NewTrafficSource(0xA11CE,
				netsim.NewPoisson(2.0),
				netsim.NewExpHolding(3.0),
				netsim.NewUniformPattern(ins, outs))
		},
		"mmpp-lognormal-hotspot": func() *netsim.TrafficSource {
			return netsim.NewTrafficSource(0xB0B,
				netsim.NewMMPP(0.5, 8.0, 20.0, 2.5),
				netsim.NewLognormalHolding(1.0, 0.8),
				netsim.NewHotspotPattern(ins, outs, 2, 0.7))
		},
		"diurnal-pareto-permutation": func() *netsim.TrafficSource {
			return netsim.NewTrafficSource(0xC4B1D,
				netsim.NewDiurnal(4.0, 0.9, 50.0),
				netsim.NewParetoHolding(1.5, 1.0),
				netsim.NewPermutationPattern(ins, outs))
		},
	}
}

// TestSourceDeterminism: same (seed, config) ⇒ byte-identical event
// stream, for every combinator.
func TestSourceDeterminism(t *testing.T) {
	for name, mk := range sourceVariants(t) {
		t.Run(name, func(t *testing.T) {
			a, b := mk(), mk()
			var ea, eb netsim.Arrival
			prev := 0.0
			for i := 0; i < 2000; i++ {
				if !a.Next(&ea) || !b.Next(&eb) {
					t.Fatalf("event %d: stream ended", i)
				}
				if ea != eb {
					t.Fatalf("event %d: %+v vs %+v", i, ea, eb)
				}
				if ea.At < prev {
					t.Fatalf("event %d: time went backwards: %v after %v", i, ea.At, prev)
				}
				prev = ea.At
				if !(ea.Hold > 0) || math.IsInf(ea.Hold, 0) || math.IsNaN(ea.Hold) {
					t.Fatalf("event %d: bad holding time %v", i, ea.Hold)
				}
			}
		})
	}
}

// TestSourceReset: Reset with the construction seed replays the stream
// bit for bit, including stateful components (MMPP phase, lazily drawn
// permutations).
func TestSourceReset(t *testing.T) {
	seeds := map[string]uint64{
		"poisson-exp-uniform":        0xA11CE,
		"mmpp-lognormal-hotspot":     0xB0B,
		"diurnal-pareto-permutation": 0xC4B1D,
	}
	for name, mk := range sourceVariants(t) {
		t.Run(name, func(t *testing.T) {
			s := mk()
			first := make([]netsim.Arrival, 500)
			for i := range first {
				s.Next(&first[i])
			}
			s.Reset(seeds[name])
			var e netsim.Arrival
			for i := range first {
				s.Next(&e)
				if e != first[i] {
					t.Fatalf("event %d after Reset: %+v vs %+v", i, e, first[i])
				}
			}
		})
	}
}

// TestSourceStatistics: coarse sanity on the generated distributions —
// mean arrival rate and mean hold near their configured values, hotspot
// traffic concentrated as configured, permutations consistent.
func TestSourceStatistics(t *testing.T) {
	ins, outs := smallTerminals(t)
	const n = 50000

	t.Run("poisson-rate", func(t *testing.T) {
		s := netsim.NewTrafficSource(1, netsim.NewPoisson(2.0), netsim.NewExpHolding(3.0), netsim.NewUniformPattern(ins, outs))
		var e netsim.Arrival
		var holdSum float64
		for i := 0; i < n; i++ {
			s.Next(&e)
			holdSum += e.Hold
		}
		rate := float64(n) / e.At
		if rate < 1.9 || rate > 2.1 {
			t.Fatalf("empirical rate %v, want ~2.0", rate)
		}
		if mean := holdSum / n; mean < 2.85 || mean > 3.15 {
			t.Fatalf("empirical mean hold %v, want ~3.0", mean)
		}
	})

	t.Run("hotspot-fraction", func(t *testing.T) {
		hot := map[int32]bool{outs[0]: true, outs[1]: true}
		s := netsim.NewTrafficSource(2, netsim.NewPoisson(1.0), netsim.NewExpHolding(1.0),
			netsim.NewHotspotPattern(ins, outs, 2, 0.7))
		var e netsim.Arrival
		hits := 0
		for i := 0; i < n; i++ {
			s.Next(&e)
			if hot[e.Out] {
				hits++
			}
		}
		// 70% directed + uniform spillover (2 of len(outs)) from the rest.
		want := 0.7 + 0.3*2.0/float64(len(outs))
		got := float64(hits) / n
		if math.Abs(got-want) > 0.02 {
			t.Fatalf("hot fraction %v, want ~%v", got, want)
		}
	})

	t.Run("permutation-consistent", func(t *testing.T) {
		s := netsim.NewTrafficSource(3, netsim.NewPoisson(1.0), netsim.NewExpHolding(1.0),
			netsim.NewPermutationPattern(ins, outs))
		var e netsim.Arrival
		assigned := map[int32]int32{}
		seen := map[int32]bool{}
		for i := 0; i < 5000; i++ {
			s.Next(&e)
			if out, ok := assigned[e.In]; ok {
				if out != e.Out {
					t.Fatalf("input %d mapped to both %d and %d", e.In, out, e.Out)
				}
				continue
			}
			if seen[e.Out] {
				t.Fatalf("output %d assigned to two inputs", e.Out)
			}
			assigned[e.In] = e.Out
			seen[e.Out] = true
		}
		if len(assigned) != len(ins) {
			t.Fatalf("saw %d of %d inputs", len(assigned), len(ins))
		}
	})

	t.Run("mmpp-bursty", func(t *testing.T) {
		// Burst state 16× the base rate: the gap distribution must be
		// overdispersed relative to Poisson (squared-CV well above 1).
		s := netsim.NewTrafficSource(4, netsim.NewMMPP(0.5, 8.0, 20.0, 2.5),
			netsim.NewExpHolding(1.0), netsim.NewUniformPattern(ins, outs))
		var e netsim.Arrival
		prev := 0.0
		var sum, sum2 float64
		for i := 0; i < n; i++ {
			s.Next(&e)
			g := e.At - prev
			prev = e.At
			sum += g
			sum2 += g * g
		}
		mean := sum / n
		cv2 := (sum2/n - mean*mean) / (mean * mean)
		if cv2 < 1.5 {
			t.Fatalf("MMPP gap CV² = %v, want clearly overdispersed (> 1.5)", cv2)
		}
	})
}

// TestSourceConstructorValidation: each constructor rejects nonsense.
func TestSourceConstructorValidation(t *testing.T) {
	ins, outs := smallTerminals(t)
	cases := map[string]func(){
		"nil-component":      func() { netsim.NewTrafficSource(1, nil, netsim.NewExpHolding(1), netsim.NewUniformPattern(ins, outs)) },
		"poisson-rate":       func() { netsim.NewPoisson(0) },
		"poisson-rate-nan":   func() { netsim.NewPoisson(math.NaN()) },
		"poisson-rate-inf":   func() { netsim.NewPoisson(math.Inf(1)) },
		"mmpp-rates":         func() { netsim.NewMMPP(0, 0, 1, 1) },
		"mmpp-sojourn":       func() { netsim.NewMMPP(1, 2, 0, 1) },
		"diurnal-depth":      func() { netsim.NewDiurnal(1, 1.5, 10) },
		"exp-mean":           func() { netsim.NewExpHolding(-1) },
		"lognormal-sigma":    func() { netsim.NewLognormalHolding(0, -0.5) },
		"pareto-shape":       func() { netsim.NewParetoHolding(0, 1) },
		"uniform-empty":      func() { netsim.NewUniformPattern(nil, outs) },
		"hotspot-count":      func() { netsim.NewHotspotPattern(ins, outs, len(outs)+1, 0.5) },
		"hotspot-frac":       func() { netsim.NewHotspotPattern(ins, outs, 1, 1.5) },
		"hotspot-frac-nan":   func() { netsim.NewHotspotPattern(ins, outs, 1, math.NaN()) },
		"permutation-excess": func() { netsim.NewPermutationPattern(outs, ins[:1]) },
	}
	for name, fn := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("constructor accepted invalid arguments")
				}
			}()
			fn()
		})
	}
}
