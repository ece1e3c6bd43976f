// Package ftcsn is a production-quality Go implementation of
//
//	Nicholas Pippenger and Geng Lin,
//	"Fault-Tolerant Circuit-Switching Networks",
//	SIAM J. Discrete Math. 7(1):108–118, 1994 (SPAA 1992).
//
// The paper studies circuit-switching networks under the random switch
// failure model: every switch independently suffers an open failure
// (probability ε), a closed failure (probability ε), or works. It proves
// that fault-tolerant nonblocking networks, rearrangeable networks and
// superconcentrators all require Θ(n (log n)²) switches and Θ(log n)
// depth, and explicitly constructs an optimal fault-tolerant strictly
// nonblocking network (Network 𝒩).
//
// This package is the stable public API; it re-exports the core types
// from the internal packages:
//
//   - Build / Params: the paper's Network 𝒩 (§6, Fig. 5, Theorem 2), a
//     fault-tolerant strictly nonblocking network built from directed
//     grids (Moore–Shannon hammocks) and expanding graphs;
//   - NewBenes: the Beneš rearrangeable baseline with the looping
//     routing algorithm;
//   - NewSuperconcentrator: linear-size superconcentrators with
//     max-flow verification;
//   - Symmetric / Inject: the random switch failure model;
//   - NewRouter / NewRepairedRouter: greedy circuit routing (§4), and
//     NewShardedEngine / NewRepairedShardedEngine: the same decisions and
//     paths, served in batches by a hunt a per-epoch output-reachability
//     guide prunes — the two Engine implementations;
//   - Evaluate: the end-to-end Theorem-2 pipeline
//     (inject → discard repair → majority-access certificate → churn),
//     which an Evaluator runs as blocks of trials.
//
// Beyond the paper's trials, the package tells an operational-serving
// story: the open-loop traffic subsystem drives any Engine with
// production-shaped session traffic under a deterministic virtual clock.
// A TrafficSource composes an arrival process (NewPoisson, NewMMPP
// bursts, NewDiurnal modulation), a holding-time distribution
// (NewExpHolding, NewLognormalHolding, NewParetoHolding tails), and a
// destination pattern (NewUniformPattern, NewHotspotPattern,
// NewPermutationPattern) over one seeded rng stream; Serve replays the
// stream against an engine, batching due arrivals and scheduling
// departures; and SLO streams the serving quality out — rejection rate,
// live-circuit gauge, offered load in Erlangs, p50/p99/p999 connect
// latency in events-behind terms — cumulatively and in windows. The
// whole loop is wall-clock-free and byte-reproducible from (seed,
// config); cmd/ftserve is the long-running harness over it, sustaining
// overload regimes the closed-loop Theorem-2 churn never enters.
//
// The experiment harness reproducing every quantitative claim of the
// paper lives in internal/experiments and is driven by cmd/ftbench; see
// DESIGN.md and EXPERIMENTS.md.
package ftcsn

import (
	"ftcsn/internal/benes"
	"ftcsn/internal/circulant"
	"ftcsn/internal/clos"
	"ftcsn/internal/core"
	"ftcsn/internal/fault"
	"ftcsn/internal/graph"
	"ftcsn/internal/hyperx"
	"ftcsn/internal/netsim"
	"ftcsn/internal/rng"
	"ftcsn/internal/route"
	"ftcsn/internal/stats"
	"ftcsn/internal/superconc"
)

// Params configures Network 𝒩; see core.Params for field documentation.
type Params = core.Params

// Network is a materialized Network 𝒩.
type Network = core.Network

// TrialOutcome is the result of one fault-tolerance trial.
type TrialOutcome = core.TrialOutcome

// Evaluator is the reusable, allocation-free Theorem-2 trial engine: it
// owns every per-trial buffer (fault instance, repair masks, access
// checker, pooled router) for one network. Hold one per goroutine.
type Evaluator = core.Evaluator

// FaultModel holds the per-switch failure probabilities (ε₁, ε₂).
type FaultModel = fault.Model

// FaultInstance is one random realization of switch states.
type FaultInstance = fault.Instance

// Router serves connect/disconnect requests with greedy path-finding.
type Router = route.Router

// ShardedEngine serves batches of connection requests in order against
// live claims, pruning each hunt with a per-epoch output-reachability
// guide: accept/reject decisions and established paths are bit-identical
// to Router processing the batch in order. See internal/route and
// DESIGN.md §2.7.
type ShardedEngine = route.ShardedEngine

// Engine is the uniform seam over the two path-hunting engines (Router,
// ShardedEngine), both with sequential-batch semantics: ConnectBatch /
// Disconnect / PathOf / Reset / Stats plus shared-mask adoption. The
// Theorem-2 trial pipeline drives its churn through this seam
// (Evaluator.SetChurnEngine); see DESIGN.md §2.8.
type Engine = route.Engine

// EngineStats is the engine-neutral cumulative serving record.
type EngineStats = route.EngineStats

// RouteRequest asks for a circuit In → Out; RouteResult reports one
// request's outcome (Path == nil means rejected).
type RouteRequest = route.Request

// RouteResult is the per-request outcome of a routed batch.
type RouteResult = route.Result

// Graph is the underlying immutable switch-network graph.
type Graph = graph.Graph

// Levels is a graph's cached topological leveling — the contract behind
// every fast path (word-parallel certification, sharded prefilter and
// probe guide, level-ordered sweeps): obtain it with Graph.Levels(). Every
// graph gets Kahn's longest-path levels; on Network 𝒩 and the other
// staged constructions those are the stages, over level-sorted vertex
// IDs. See DESIGN.md §2.9.
type Levels = graph.Levels

// Benes is the Beneš rearrangeable baseline network.
type Benes = benes.Network

// Superconcentrator is the linear-size superconcentrator substrate.
type Superconcentrator = superconc.Network

// Build materializes the paper's Network 𝒩 for the given parameters.
func Build(p Params) (*Network, error) { return core.Build(p) }

// DefaultParams returns laptop-scale parameters preserving the paper's
// structure for n = 4^nu terminals.
func DefaultParams(nu int) Params { return core.DefaultParams(nu) }

// PaperParams returns the paper-faithful constants (huge; typically used
// only with Accounting).
func PaperParams(nu int) Params { return core.PaperParams(nu) }

// Accounting returns closed-form size/depth for parameters without
// materializing the network.
func Accounting(p Params) core.Acct { return core.Accounting(p) }

// PaperAccounting reports the paper-constant sizes (Theorem 2 accounting).
func PaperAccounting(nu int) core.PaperAcct { return core.PaperAccounting(nu) }

// Symmetric returns the paper's symmetric failure model ε₁ = ε₂ = ε.
func Symmetric(eps float64) FaultModel { return fault.Symmetric(eps) }

// Inject draws a random fault instance for g under model m, seeded
// deterministically. It panics with FaultModel.Validate's error if m is
// not a valid model; check it first when m comes from user input.
func Inject(g *Graph, m FaultModel, seed uint64) *FaultInstance {
	return fault.Inject(g, m, rng.New(seed))
}

// NewEvaluator returns a reusable trial evaluator for nw; repeated
// Evaluate calls and block trials (StartBlock, EvaluateNextInto) allocate
// nothing in steady state.
func NewEvaluator(nw *Network) *Evaluator { return core.NewEvaluator(nw) }

// NewRouter returns a greedy circuit router over the fault-free network.
func NewRouter(g *Graph) *Router { return route.NewRouter(g) }

// NewRepairedRouter returns a router over the network repaired from inst
// by the paper's rule: discard every faulty non-terminal vertex.
func NewRepairedRouter(inst *FaultInstance) *Router { return route.NewRepairedRouter(inst) }

// NewShardedEngine returns the guided batch-routing engine over the
// fault-free network: the Router's decisions and paths, each hunt pruned
// by a per-epoch output-reachability guide.
func NewShardedEngine(g *Graph) *ShardedEngine {
	return route.NewShardedEngine(g, 1)
}

// NewRepairedShardedEngine is NewShardedEngine over the network repaired
// from inst by the paper's discard rule.
func NewRepairedShardedEngine(inst *FaultInstance) *ShardedEngine {
	return route.NewRepairedShardedEngine(inst, 1)
}

// NewBenes builds the Beneš rearrangeable network on 2^k terminals.
func NewBenes(k int) (*Benes, error) { return benes.New(k) }

// NewSuperconcentrator builds an n-superconcentrator with concentrator
// degree d.
func NewSuperconcentrator(n, d int, seed uint64) (*Superconcentrator, error) {
	return superconc.New(n, d, seed)
}

// WrapGraph adapts any acyclic switch graph with marked terminals to the
// Network interface by treating its topological levels as stages, so the
// whole trial pipeline — batched injection, word-parallel certification,
// sharded churn — runs on arbitrary DAG topologies (Mirror() images,
// superconcentrators, hammock substitutions, HyperX, circulants) exactly
// as it does on Network 𝒩.
func WrapGraph(g *Graph) (*Network, error) { return core.WrapGraph(g) }

// HyperX is a DAG-unrolled HyperX interconnect (hold + per-dimension
// crossbar edges per hop).
type HyperX = hyperx.Network

// NewHyperX builds the DAG unrolling of the HyperX topology with the
// given per-dimension router counts, depth hops deep.
func NewHyperX(dims []int, depth int) (*HyperX, error) { return hyperx.New(dims, depth) }

// Circulant is a DAG-unrolled circulant graph C(n; strides).
type Circulant = circulant.Network

// NewCirculant builds the DAG unrolling of the circulant graph C(n;
// strides), depth hops deep.
func NewCirculant(n int, strides []int, depth int) (*Circulant, error) {
	return circulant.New(n, strides, depth)
}

// Clos is a three-stage Clos network.
type Clos = clos.Network

// NewClos builds the minimal strictly nonblocking Clos network for
// N = r·n₀ terminals (Clos's theorem: m = 2n₀−1 middles).
func NewClos(n0, r int) (*Clos, error) { return clos.NewStrict(n0, r) }

// RecursiveClos is the multi-stage strictly nonblocking Clos recursion.
type RecursiveClos = clos.RecursiveNetwork

// NewRecursiveClos builds a strictly nonblocking network on n₀^levels
// terminals with depth 2·levels−1 — the O(n^(1+1/k)) depth-vs-size
// frontier the paper's construction refines with expanders.
func NewRecursiveClos(n0, levels int) (*RecursiveClos, error) {
	return clos.NewRecursive(n0, levels)
}

// LowerBoundSize is Theorem 1's Ω(n log²n) size bound: n(log₂n)²/2688.
func LowerBoundSize(n int) float64 { return core.LowerBoundSize(n) }

// LowerBoundDepth is Theorem 1's Ω(log n) depth bound: (log₂n)/6.
func LowerBoundDepth(n int) float64 { return core.LowerBoundDepth(n) }

// --- open-loop traffic subsystem --------------------------------------------

// Arrival is one session-arrival event in virtual time; it carries its
// own departure (At + Hold).
type Arrival = netsim.Arrival

// Source is the traffic seam: a deterministic, pull-driven stream of
// timestamped arrivals.
type Source = netsim.Source

// TrafficSource composes an arrival process, a holding-time
// distribution, and a destination pattern over one seeded rng stream.
type TrafficSource = netsim.TrafficSource

// ArrivalProcess generates inter-arrival gaps; HoldingDist generates
// session holding times; Pattern generates destination pairs. All draw
// only from the rng stream they are handed.
type (
	ArrivalProcess = netsim.ArrivalProcess
	HoldingDist    = netsim.HoldingDist
	Pattern        = netsim.Pattern
)

// ServeConfig bounds and instruments an open-loop serving run; ServeLoop
// is the reusable zero-steady-state-alloc event loop behind Serve.
type (
	ServeConfig = netsim.ServeConfig
	ServeLoop   = netsim.Loop
)

// SLO accumulates SLO-grade serving statistics (rejection rate, live
// circuits, offered load, events-behind latency quantiles) cumulatively
// and in windows; SLOSnapshot is one summarized scope. LatencyHist is
// the underlying fixed-footprint log-scale histogram.
type (
	SLO         = stats.SLO
	SLOSnapshot = stats.SLOSnapshot
	LatencyHist = stats.LogHist
)

// NewTrafficSource composes the three traffic pieces into a Source whose
// (seed, config) pair reproduces its event stream bit for bit.
func NewTrafficSource(seed uint64, arr ArrivalProcess, hold HoldingDist, pat Pattern) *TrafficSource {
	return netsim.NewTrafficSource(seed, arr, hold, pat)
}

// NewPoisson returns homogeneous Poisson arrivals at the given rate.
func NewPoisson(rate float64) ArrivalProcess { return netsim.NewPoisson(rate) }

// NewMMPP returns two-state Markov-modulated (bursty) Poisson arrivals.
func NewMMPP(baseRate, burstRate, meanBase, meanBurst float64) ArrivalProcess {
	return netsim.NewMMPP(baseRate, burstRate, meanBase, meanBurst)
}

// NewDiurnal returns sinusoidally modulated arrivals: rate(t) =
// base·(1 + depth·sin(2πt/period)).
func NewDiurnal(base, depth, period float64) ArrivalProcess {
	return netsim.NewDiurnal(base, depth, period)
}

// NewExpHolding returns exponential holding times with the given mean.
func NewExpHolding(mean float64) HoldingDist { return netsim.NewExpHolding(mean) }

// NewLognormalHolding returns lognormal holding times (mean
// exp(mu + sigma²/2)).
func NewLognormalHolding(mu, sigma float64) HoldingDist {
	return netsim.NewLognormalHolding(mu, sigma)
}

// NewParetoHolding returns Pareto heavy-tail holding times.
func NewParetoHolding(shape, scale float64) HoldingDist {
	return netsim.NewParetoHolding(shape, scale)
}

// NewUniformPattern draws (input, output) pairs uniformly.
func NewUniformPattern(inputs, outputs []int32) Pattern {
	return netsim.NewUniformPattern(inputs, outputs)
}

// NewHotspotPattern routes a hotFrac share of traffic to the first
// hotCount outputs.
func NewHotspotPattern(inputs, outputs []int32, hotCount int, hotFrac float64) Pattern {
	return netsim.NewHotspotPattern(inputs, outputs, hotCount, hotFrac)
}

// NewPermutationPattern fixes a seeded random one-to-one input→output
// mapping and draws inputs uniformly.
func NewPermutationPattern(inputs, outputs []int32) Pattern {
	return netsim.NewPermutationPattern(inputs, outputs)
}

// Serve replays src against eng under a virtual clock, recording every
// event in slo; see netsim.Loop.Serve for the full contract.
func Serve(eng Engine, src Source, cfg ServeConfig, slo *SLO) error {
	return netsim.Serve(eng, src, cfg, slo)
}
