// Package reliability computes exact failure probabilities of two-terminal
// switch networks under the Moore–Shannon / Pippenger–Lin random switch
// failure model, plus the series/parallel composition calculus used in the
// proof of Proposition 1.
//
// A two-terminal network (an "(ε,ε′)-1-network") fails in one of two ways:
//
//   - it is OPEN if no conducting path joins input to output (a switch
//     conducts when it is normal or closed-failed, i.e. with probability
//     1−ε₁);
//   - it is SHORTED if the input and output contract into one node, which
//     requires a path consisting solely of closed-failed switches (each
//     closed with probability ε₂).
//
// Both events are "does a path of p-present edges exist" questions with
// different per-edge probabilities p, so a single algorithm serves both.
// For the (l,w)-directed grids of the paper (Fig. 4) the forward staged
// structure admits an O(w·4^l·l) subset-distribution dynamic program:
// conditioned on the reachable row set of stage j, the events "row i of
// stage j+1 is reached" are independent across i, because each row has its
// own pair of incoming switches.
//
// A subtlety: contraction through closed switches is undirected (a closed
// switch merges its endpoints, which conducts both ways), so a
// source→sink connection may zig-zag backwards through a contracted
// cluster. The forward DP is exact for forward-path events and therefore
// brackets the contraction semantics:
//
//	GridPathProb(ε₂)      ≤ P[shorted]            (forward closed paths only)
//	1−GridPathProb(1−ε₁)  ≥ P[open]               (forward conduction only)
//
// The test oracle ExactSmallNetwork (oracle_test.go) enumerates all 3^m
// switch states of an arbitrary small network with the true contraction
// semantics and calibrates how tight the bracket is (for grids it is tight to a few
// percent at ε ≤ 0.25 and asymptotically negligible).
package reliability

import (
	"fmt"
	"math"
	"math/bits"
)

// MaxExactRows bounds the grid height for the exact subset DP; 4^l subset
// pairs per stage keeps l ≤ 12 practical.
const MaxExactRows = 12

// GridPathProb returns the exact probability that, in an (l,w) directed
// grid with a source joined to every row of the first stage and a sink
// joined from every row of the last stage, the sink is reachable from the
// source when every switch is independently present with probability p.
//
// Edges follow the paper's definition: (i,j)→(i,j+1) and (i,j)→(i+1,j+1);
// with cyclic=true row arithmetic wraps modulo l (the variant used inside
// Network 𝒩, which has 2l switches per stage transition).
//
// Setting p = 1−ε₁ gives the probability the network is NOT open;
// setting p = ε₂ gives the probability the network IS shorted.
func GridPathProb(l, w int, cyclic bool, p float64) (float64, error) {
	if l < 1 || w < 1 {
		return 0, fmt.Errorf("reliability: invalid grid %dx%d", l, w)
	}
	if l > MaxExactRows {
		return 0, fmt.Errorf("reliability: l=%d exceeds exact limit %d", l, MaxExactRows)
	}
	if p < 0 || p > 1 {
		return 0, fmt.Errorf("reliability: probability %v out of range", p)
	}
	size := 1 << uint(l)
	cur := make([]float64, size)
	next := make([]float64, size)

	// Initial distribution: row i of stage 0 is reached iff its source
	// switch is present — independent across rows.
	for s := 0; s < size; s++ {
		k := bits.OnesCount(uint(s))
		cur[s] = math.Pow(p, float64(k)) * math.Pow(1-p, float64(l-k))
	}

	// probReach[i] given predecessor set S: row i is reached if the straight
	// switch from row i or the diagonal switch from row i-1 conducts.
	q := 1 - p
	for stage := 1; stage < w; stage++ {
		for i := range next {
			next[i] = 0
		}
		for s := 0; s < size; s++ {
			ms := cur[s]
			if ms == 0 {
				continue
			}
			// pr[i] = P[row i reached | S=s]
			var pr [MaxExactRows]float64
			for i := 0; i < l; i++ {
				straight := s&(1<<uint(i)) != 0
				var diagFrom bool
				if i > 0 {
					diagFrom = s&(1<<uint(i-1)) != 0
				} else if cyclic {
					diagFrom = s&(1<<uint(l-1)) != 0
				}
				pi := 0.0
				switch {
				case straight && diagFrom:
					pi = 1 - q*q
				case straight || diagFrom:
					pi = p
				}
				pr[i] = pi
			}
			// Fold the independent rows into the next-stage distribution:
			// next[t] += ms * Π_i (pr[i] if bit i of t set, else 1-pr[i]).
			for t := 0; t < size; t++ {
				prob := ms
				for i := 0; i < l && prob != 0; i++ {
					if t&(1<<uint(i)) != 0 {
						prob *= pr[i]
					} else {
						prob *= 1 - pr[i]
					}
				}
				if prob != 0 {
					next[t] += prob
				}
			}
		}
		cur, next = next, cur
	}

	// Sink: reached if any present sink switch leaves a reached row.
	total := 0.0
	for s := 0; s < size; s++ {
		if cur[s] == 0 {
			continue
		}
		k := bits.OnesCount(uint(s))
		total += cur[s] * (1 - math.Pow(q, float64(k)))
	}
	return total, nil
}

// GridFailureProbs returns the forward-path probabilities that the
// two-terminal (l,w) hammock network is open (no forward conducting path)
// and shorted (a forward closed-only path) under the symmetric model
// ε₁ = ε₂ = eps. Per the package comment these bracket the exact
// contraction-semantics failure probabilities: pOpen is an upper bound on
// the true open probability and pShort a lower bound on the true short
// probability.
func GridFailureProbs(l, w int, cyclic bool, eps float64) (pOpen, pShort float64, err error) {
	conduct, err := GridPathProb(l, w, cyclic, 1-eps)
	if err != nil {
		return 0, 0, err
	}
	short, err := GridPathProb(l, w, cyclic, eps)
	if err != nil {
		return 0, 0, err
	}
	return 1 - conduct, short, nil
}
