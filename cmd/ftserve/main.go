// Command ftserve is the long-running open-loop serving harness: it
// drives the guided engine (route.ShardedEngine) with sustained session
// traffic — composable arrival processes (Poisson, MMPP bursts, diurnal
// modulation), holding time distributions (exponential, lognormal,
// Pareto), and destination patterns (uniform, hotspot, permutation) —
// under a virtual clock, and prints periodic windowed plus final
// cumulative SLO reports: rejection rate, live-circuit gauge, offered load
// in Erlangs, and p50/p99/p999 connect latency in events-behind terms.
//
// The final report ends with the engine's own counters: the reject
// breakdown (endpoint not a terminal, busy or unusable; no idle path) and
// the routing guide's maintenance (full rebuilds, incremental refreshes,
// rows recomputed and changed, lane words recomputed).
//
// The report is a pure function of the flags: two runs with the same
// flags are byte-identical (the CI smoke gate diffs them). The only
// wall-clock read lives behind -wall and goes to stderr, keeping stdout
// deterministic.
//
// Usage:
//
//	ftserve -nu=2 -eps=0.002 -seed=7 \
//	        -rate=8 -hold=4 -duration=200 -pattern=hotspot -report=50
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"time"

	"ftcsn/internal/core"
	"ftcsn/internal/fault"
	"ftcsn/internal/netsim"
	"ftcsn/internal/rng"
	"ftcsn/internal/route"
	"ftcsn/internal/stats"
)

type config struct {
	nu        int
	eps       float64
	faultSeed uint64

	seed        uint64
	rate        float64
	arrival     string
	hold        float64
	holdDist    string
	pattern     string
	hotFrac     float64
	hotCount    int
	duration    float64
	maxArrivals int64
	batch       int
	report      float64
}

func parseFlags(args []string) (config, error) {
	var c config
	fs := flag.NewFlagSet("ftserve", flag.ContinueOnError)
	fs.IntVar(&c.nu, "nu", 2, "ν (n = 4^ν terminals)")
	fs.Float64Var(&c.eps, "eps", 0, "switch failure rate ε; > 0 serves on the repaired faulty network")
	fs.Uint64Var(&c.faultSeed, "faultseed", 1, "fault-draw seed (eps > 0)")
	fs.Uint64Var(&c.seed, "seed", 7, "traffic seed")
	fs.Float64Var(&c.rate, "rate", 8, "mean arrival rate (arrivals per unit virtual time)")
	fs.StringVar(&c.arrival, "arrival", "poisson", "arrival process: poisson|mmpp|diurnal (mmpp bursts at 4×rate from a rate/4 base; diurnal swings ±80% over duration/2)")
	fs.Float64Var(&c.hold, "hold", 4, "mean holding time (virtual)")
	fs.StringVar(&c.holdDist, "holddist", "exp", "holding distribution: exp|lognormal|pareto (lognormal σ=1; pareto shape=1.5)")
	fs.StringVar(&c.pattern, "pattern", "uniform", "destination pattern: uniform|hotspot|permutation")
	fs.Float64Var(&c.hotFrac, "hotfrac", 0.7, "fraction of traffic aimed at the hot set (pattern=hotspot)")
	fs.IntVar(&c.hotCount, "hotcount", 2, "hot output count (pattern=hotspot)")
	fs.Float64Var(&c.duration, "duration", 200, "virtual-time horizon (0 = unbounded, needs -maxarrivals)")
	fs.Int64Var(&c.maxArrivals, "maxarrivals", 0, "stop after this many arrivals (0 = unbounded, needs -duration)")
	fs.IntVar(&c.batch, "batch", 0, "max arrivals per ConnectBatch (0 = default)")
	fs.Float64Var(&c.report, "report", 50, "windowed report interval in virtual time (0 = final report only)")
	wall := fs.Bool("wall", false, "report wall-clock event throughput to stderr")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	if *wall {
		wallClock = true
	}
	return c, nil
}

// wallClock gates the only wall-clock read in the binary; the sample is
// taken in main and printed to stderr so stdout stays deterministic.
var wallClock bool

// buildEngine returns the guided engine over nw, repaired after a fault
// draw at -eps when eps > 0.
func buildEngine(c config, nw *core.Network) *route.ShardedEngine {
	if c.eps > 0 {
		inst := fault.Inject(nw.G, fault.Symmetric(c.eps), rng.New(c.faultSeed))
		return route.NewRepairedShardedEngine(inst, 1)
	}
	return route.NewShardedEngine(nw.G, 1)
}

func buildSource(c config, nw *core.Network) (*netsim.TrafficSource, error) {
	var arr netsim.ArrivalProcess
	switch c.arrival {
	case "poisson":
		arr = netsim.NewPoisson(c.rate)
	case "mmpp":
		// Bursts at 4× the nominal rate from a quiet rate/4 base, with
		// sojourns long enough for tens of arrivals per phase.
		arr = netsim.NewMMPP(c.rate/4, 4*c.rate, 32/c.rate, 16/c.rate)
	case "diurnal":
		period := c.duration / 2
		if period <= 0 {
			period = 100
		}
		arr = netsim.NewDiurnal(c.rate, 0.8, period)
	default:
		return nil, fmt.Errorf("unknown arrival process %q (want poisson|mmpp|diurnal)", c.arrival)
	}
	var hold netsim.HoldingDist
	switch c.holdDist {
	case "exp":
		hold = netsim.NewExpHolding(c.hold)
	case "lognormal":
		// σ = 1; μ chosen so the mean is c.hold.
		hold = netsim.NewLognormalHolding(math.Log(c.hold)-0.5, 1)
	case "pareto":
		// shape = 1.5; scale chosen so the mean is c.hold.
		hold = netsim.NewParetoHolding(1.5, c.hold/3)
	default:
		return nil, fmt.Errorf("unknown holding distribution %q (want exp|lognormal|pareto)", c.holdDist)
	}
	var pat netsim.Pattern
	switch c.pattern {
	case "uniform":
		pat = netsim.NewUniformPattern(nw.Inputs(), nw.Outputs())
	case "hotspot":
		if n := len(nw.Outputs()); c.hotCount < 1 || c.hotCount > n {
			return nil, fmt.Errorf("-hotcount must be in [1, %d], got %d", n, c.hotCount)
		}
		if !(c.hotFrac >= 0 && c.hotFrac <= 1) {
			return nil, fmt.Errorf("-hotfrac must be in [0, 1], got %g", c.hotFrac)
		}
		pat = netsim.NewHotspotPattern(nw.Inputs(), nw.Outputs(), c.hotCount, c.hotFrac)
	case "permutation":
		pat = netsim.NewPermutationPattern(nw.Inputs(), nw.Outputs())
	default:
		return nil, fmt.Errorf("unknown pattern %q (want uniform|hotspot|permutation)", c.pattern)
	}
	return netsim.NewTrafficSource(c.seed, arr, hold, pat), nil
}

func writeWindow(w io.Writer, t float64, s *stats.SLO) {
	sn := s.Window()
	fmt.Fprintf(w, "t=%10.2f  offered=%7d acc=%7d rej=%6d (%6.2f%%)  live=%5d peak=%5d  load=%8.2fE  behind p50/p99/p999/max=%d/%d/%d/%d\n",
		t, sn.Offered, sn.Accepted, sn.Rejected, 100*sn.RejectRate,
		sn.Live, sn.PeakLive, sn.OfferedLoad,
		sn.P50, sn.P99, sn.P999, sn.MaxBehind)
}

// run executes one serving session and returns the deterministic report
// plus the total event count (for the stderr wall-clock summary).
func run(c config) (string, int64, error) {
	// Comparisons alone would let NaN through, and an infinite rate never
	// advances virtual time. The horizon is checked here, ahead of
	// netsim.Serve's own check, because the diurnal period derives from it
	// while the source is built.
	if !(c.rate > 0 && c.hold > 0) || math.IsInf(c.rate, 1) || math.IsInf(c.hold, 1) {
		return "", 0, fmt.Errorf("-rate %g and -hold %g must be finite and positive", c.rate, c.hold)
	}
	if !(c.duration >= 0) || math.IsInf(c.duration, 1) {
		return "", 0, fmt.Errorf("-duration %g must be finite and >= 0", c.duration)
	}
	if err := fault.Symmetric(c.eps).Validate(); err != nil {
		return "", 0, fmt.Errorf("-eps %g: %w", c.eps, err)
	}
	nw, err := core.Build(core.DefaultParams(c.nu))
	if err != nil {
		return "", 0, err
	}
	eng := buildEngine(c, nw)
	src, err := buildSource(c, nw)
	if err != nil {
		return "", 0, err
	}

	var b strings.Builder
	fmt.Fprintf(&b, "ftserve: n=%d vertices=%d switches=%d eps=%g\n",
		len(nw.Inputs()), nw.G.NumVertices(), nw.G.NumEdges(), c.eps)
	fmt.Fprintf(&b, "traffic: arrival=%s rate=%g hold=%s mean=%g pattern=%s seed=%#x\n",
		c.arrival, c.rate, c.holdDist, c.hold, c.pattern, c.seed)
	fmt.Fprintf(&b, "config: horizon=%g max-arrivals=%d batch=%d report=%g\n",
		c.duration, c.maxArrivals, c.batch, c.report)

	var slo stats.SLO
	cfg := netsim.ServeConfig{
		Horizon:     c.duration,
		MaxArrivals: c.maxArrivals,
		MaxBatch:    c.batch,
		ReportEvery: c.report,
	}
	if c.report > 0 {
		cfg.OnReport = func(t float64, s *stats.SLO) { writeWindow(&b, t, s) }
	}
	if err := netsim.Serve(eng, src, cfg, &slo); err != nil {
		return "", 0, err
	}

	sn := slo.Snapshot()
	fmt.Fprintf(&b, "final: t=%.2f offered=%d accepted=%d rejected=%d (%.4f%%) departed=%d live=%d peak=%d\n",
		sn.End, sn.Offered, sn.Accepted, sn.Rejected, 100*sn.RejectRate, sn.Departed, sn.Live, sn.PeakLive)
	fmt.Fprintf(&b, "load: offered=%.3f erlang\n", sn.OfferedLoad)
	fmt.Fprintf(&b, "behind: p50=%d p99=%d p999=%d max=%d mean=%.3f\n",
		sn.P50, sn.P99, sn.P999, sn.MaxBehind, sn.MeanBehind)
	es := eng.Stats()
	fmt.Fprintf(&b, "engine: batches=%d requests=%d accepted=%d rejected=%d\n",
		es.Batches, es.Requests, es.Accepted, es.Rejected)
	st := eng.ShardedStats()
	fmt.Fprintf(&b, "sharded: rejects endpoint=%d probe=%d; guide rebuilds=%d refreshes=%d rows=%d changed=%d words=%d\n",
		st.EndpointRejects, st.ProbeRejects, st.GuideRebuilds, st.GuideRefreshes,
		st.GuideRowsRecomputed, st.GuideRowsChanged, st.GuideWordsRecomputed)
	return b.String(), sn.Offered + sn.Departed, nil
}

func main() {
	c, err := parseFlags(os.Args[1:])
	if err != nil {
		os.Exit(2)
	}
	start := time.Now()
	report, events, err := run(c)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ftserve:", err)
		os.Exit(1)
	}
	fmt.Print(report)
	if wallClock {
		elapsed := time.Since(start).Seconds()
		fmt.Fprintf(os.Stderr, "wall: %.3fs, %.0f events/s\n", elapsed, float64(events)/elapsed)
	}
}
