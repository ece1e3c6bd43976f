// Package netsim models session traffic against the routing layer, at
// two levels, both deterministic and both driving a route.Engine.
//
// The traffic subsystem (source.go, serve.go) is the open-loop,
// virtual-time layer: a Source emits a deterministic stream of
// timestamped Arrivals — composed from an ArrivalProcess (Poisson, MMPP
// bursts, Diurnal modulation), a HoldingDist (exponential, lognormal,
// Pareto), and a destination Pattern (uniform, hotspot, permutation),
// all drawing from one seeded rng stream — and Loop.Serve replays that
// stream against any route.Engine under a virtual clock: due arrivals
// are batched into ConnectBatch calls, admissions schedule their
// departures, and SLO-grade statistics (stats.SLO) stream out. No wall
// clock anywhere: a (seed, config) pair reproduces the run bit for bit,
// which the ftlint determinism analyzer enforces statically.
//
// The closed-loop layer (churn.go) is the Theorem-2 churn protocol:
// ChurnDriver drives it against an engine, bit-identical to a per-op
// replay of the same protocol (the test-only reference in churn_test.go).
// The free-form closed-loop generator the engine differentials use,
// Workload, is test support in netsimtest.
package netsim
