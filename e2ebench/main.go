// Command e2ebench is the repository's end-to-end benchmark. It drives
// one of three workloads from a single goroutine, times a fixed number of
// ops after set-up and warm-up, checks the ops' outputs against a
// reference, and prints one JSON line of metrics:
//
//	e2ebench --workload theorem2-n64 --seed 7 --seconds 16 --trace 0
//
// --trace 0 reports the end-to-end metrics of an untraced pass. --trace 1
// runs the same untraced pass, then a traced pass over the same ops on a
// fresh set-up of the same seed, and reports the per-layer split.
// --seconds fixes the op count (a per-workload rate times the seconds),
// never a duration, so runs of one seed do identical work. METRICS.md
// describes the workloads, the metrics and the layer each is meant to
// move. Build and run it through run.sh.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"ftcsn/internal/rng"
	"ftcsn/internal/route"
)

// workload is one benchmark input set. opsPerSec is nominal: it turns
// --seconds into the fixed op count (for serve, arrivals) and is sized so
// a timed pass takes about that long on a 2-core 2.1 GHz x86-64 VM.
type workload struct {
	name      string
	opsPerSec int
	warm      int // warm-up ops before timing
	setups    int // identical constructions timed for setup_s
	run       func(cfg runConfig, rep *report) error
}

var workloads = []workload{
	{name: "theorem2-n64", opsPerSec: 900, warm: 256, setups: 3, run: runTheorem2},
	{name: "serve-n256", opsPerSec: 8000, warm: 1000, setups: 3, run: runServe},
	{name: "epochs-n4096", opsPerSec: 750, warm: 64, setups: 3, run: runEpochs},
}

// runConfig is what one invocation asks of a workload.
type runConfig struct {
	seed   uint64
	ops    int
	warm   int
	setups int
	trace  bool
	outDir string
}

// derive returns the k-th independent seed of the run's seed, so fault
// draws, warm-up and timed traffic never share a stream.
func derive(seed, k uint64) uint64 { return rng.Stream(seed, k).Uint64() }

const (
	seedFaults = iota + 1
	seedWarm
	seedTimed
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects a run's metrics and check verdicts. counts holds the
// values that must repeat exactly across runs of one seed.
type report struct {
	attempted, failed int64
	metrics           map[string]metric
	counts            map[string]float64
	problems          []string
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, counts: map[string]float64{}}
}

func (r *report) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

// count records a metric that must repeat exactly across runs of a seed.
func (r *report) count(name string, v float64, unit string) {
	r.set(name, v, unit)
	r.counts[name] = v
}

// fail records a check that did not hold; ops is how many ops it fails.
func (r *report) fail(ops int64, format string, args ...any) {
	r.failed += ops
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// expect records that two values a check compares must be equal.
func (r *report) expect(what string, got, want any) {
	if got != want {
		r.fail(0, "%s: got %v, want %v", what, got, want)
	}
}

// pass is one timed pass over the workload's ops. wall is the raw time
// of its timed stretches, host readings left out.
type pass struct {
	ops  int64 // ops timed (for serve: events)
	wall time.Duration
	raw  []float64 // wall time per op of each sample, µs
	n    []int64   // ops in each sample
	at   []int     // index of the last host reading before each sample
	// samples and marks are the host-adjusted samples and the progress
	// through the pass, filled in by adjust.
	samples []float64
	marks   []mark
}

// mark records that ops ops had completed after us host-adjusted µs of
// timed work.
type mark struct {
	ops int64
	us  float64
}

func newPass(capacity int) *pass {
	return &pass{raw: make([]float64, 0, capacity), n: make([]int64, 0, capacity), at: make([]int, 0, capacity)}
}

// add records one sample: n ops that took d of wall time, after host's
// latest reading (host nil: a traced pass, never adjusted).
func (p *pass) add(n int64, d time.Duration, host *hostRef) {
	p.raw = append(p.raw, float64(d.Nanoseconds())/1e3/float64(n))
	p.n = append(p.n, n)
	k := -1
	if host != nil {
		k = len(host.all) - 1
	}
	p.at = append(p.at, k)
}

// adjust scales each sample by refNominalUS over the median of the four
// host readings around it, two before and two after, and fills in samples
// and marks.
func (p *pass) adjust(host *hostRef) {
	p.samples = make([]float64, len(p.raw))
	p.marks = make([]mark, len(p.raw))
	var ops int64
	var us float64
	for i, r := range p.raw {
		k := p.at[i]
		near := host.all[max(0, k-1):min(len(host.all), k+3)]
		p.samples[i] = r * refNominalUS / median(near)
		ops += p.n[i]
		us += p.samples[i] * float64(p.n[i])
		p.marks[i] = mark{ops, us}
	}
}

// hostRef reads the host's speed with a fixed loop of the benchmark's
// own, so that figures taken minutes apart compare. On the shared hosts
// this benchmark runs on, another tenant's load on the same physical core
// slows this code by up to ~1.7× for seconds to minutes at a time
// (METRICS.md). The loop runs one dependent xorshift chain, which that
// load barely slows, then eight independent ones, which it slows about
// 2×; together they slow about as much as the workloads do. pass.adjust
// scales each timed op by refNominalUS over the readings around it, so its
// figure is the time it would have taken with the loop at its nominal
// speed. The loop touches no memory, so it leaves the program's caches
// alone; it runs between ops, outside their timing.
type hostRef struct {
	all   []float64 // every reading, µs
	spent time.Duration
}

// refEvery is how many timed ops pass between host readings (on serve, a
// reading follows every report window): about one reading per 6–10 ms of
// timed work, ~1% of it.
const refEvery = 8

const (
	refChainIters = 12000
	refWideIters  = 6000
	// refNominalUS is what one reading takes at the nominal host speed:
	// its median on the 2.1 GHz Xeon VM these figures were tuned on, in
	// that host's slow state.
	refNominalUS = 106.0
)

var refSink uint64

// refLoop is the fixed reference work.
func refLoop() {
	x := uint64(88172645463325252)
	for i := 0; i < refChainIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	var w [8]uint64
	for k := range w {
		w[k] = x + uint64(k)*0x9E3779B97F4A7C15
	}
	for i := 0; i < refWideIters; i++ {
		for k := range w {
			w[k] ^= w[k] << 13
			w[k] ^= w[k] >> 7
			w[k] ^= w[k] << 17
		}
	}
	for _, v := range w {
		x ^= v
	}
	refSink += x
}

// newHostRef returns a reader with room for readings readings, so that
// reading never allocates.
func newHostRef(readings int) *hostRef {
	return &hostRef{all: make([]float64, 0, readings)}
}

// read takes one reading.
func (h *hostRef) read() {
	t0 := time.Now()
	refLoop()
	d := time.Since(t0)
	h.spent += d
	h.all = append(h.all, float64(d.Nanoseconds())/1e3)
}

// bracket takes the two readings that open or close a timed stretch, so
// the ops at its ends have readings on both sides.
func (h *hostRef) bracket() {
	h.read()
	h.read()
}

// readingsFor is the room a pass of ops timed ops (serve: report windows)
// in stretches stretches needs: one reading per refEvery, a bracket at
// each end of each stretch.
func readingsFor(ops, stretches int) int { return ops/refEvery + 5*stretches + 1 }

// opsPerSec is the median, over consecutive slices of the pass, of each
// slice's ops per host-adjusted second.
func (p *pass) opsPerSec() float64 {
	if len(p.marks) == 0 {
		return 0
	}
	k := max(1, min(maxSlices, len(p.marks)/minSamples))
	rates := make([]float64, 0, k)
	prev := mark{}
	for c := 1; c <= k; c++ {
		m := p.marks[c*len(p.marks)/k-1]
		rates = append(rates, float64(m.ops-prev.ops)/(m.us-prev.us)*1e6)
		prev = m
	}
	return median(rates)
}

// maxSlices bounds the slices opsPerSec takes its median over; each keeps
// at least minSamples samples.
const maxSlices = 64

// endToEnd records the end-to-end metrics shared by every workload.
func (r *report) endToEnd(p *pass, host *hostRef, setupSecs []float64, heapBytes uint64, acceptShare float64, behindP99 uint64) {
	p.adjust(host)
	r.set("ops_per_s", p.opsPerSec(), "1/s")
	r.set("op_p50_us", quantile(append([]float64(nil), p.samples...), 0.50), "us")
	r.set("op_p95_us", quantile(append([]float64(nil), p.samples...), 0.95), "us")
	r.count("accept_share", acceptShare, "share")
	r.count("behind_p99", float64(behindP99), "events")
	r.set("heap_mb", float64(heapBytes)/1e6, "MB")
	r.set("setup_s", median(setupSecs), "s")
	r.set("host.ref_us", median(host.all), "us")
	if len(p.samples) < minSamples {
		r.fail(0, "only %d op samples; op_p95_us needs %d for ten beyond it", len(p.samples), minSamples)
	}
}

// minSamples is the fewest timed samples that leave ten beyond p95, and
// the fewest a slice holds.
const minSamples = 200

// layerSplit records the per-layer metrics of a traced pass: self time per
// op for each layer, how much of the traced time those layers cover, and
// how much longer the traced pass took than the untraced one of the run.
func (r *report) layerSplit(tr *tracer, ops int64, untraced time.Duration) {
	self := tr.selfNanos()
	per := func(names ...spanName) float64 {
		var ns int64
		for _, n := range names {
			ns += self[n]
		}
		return float64(ns) / 1e3 / float64(ops)
	}
	layers := []struct {
		name  string
		spans []spanName
	}{
		{"fault.apply_next_us", []spanName{spApplyNext, spFillStream}},
		{"fault.witness_us", []spanName{spWitness}},
		{"core.mask_apply_us", []spanName{spMaskApply}},
		{"core.certify_us", []spanName{spCertify}},
		{"route.guide_refresh_us", []spanName{spGuide}},
		{"route.reset_us", []spanName{spReset}},
		{"route.connect_batch_us", []spanName{spConnect}},
		{"route.disconnect_us", []spanName{spDisconnect}},
		{"netsim.churn_self_us", []spanName{spChurn}},
		{"netsim.source_next_us", []spanName{spSourceNext}},
		{"netsim.loop_self_us", []spanName{spServe}},
		{"montecarlo.harness_self_us", []spanName{spHarness}},
	}
	var covered float64
	for _, l := range layers {
		v := per(l.spans...)
		covered += v
		r.set(l.name, v, "us")
	}
	root := float64(tr.rootNanos()) / 1e3 / float64(ops)
	coverage := covered / root
	r.set("trace.coverage_share", coverage, "share")
	r.set("trace.overhead_share", float64(tr.rootNanos())/float64(untraced.Nanoseconds())-1, "share")
	if tr.overflow {
		r.fail(0, "span buffer overflowed its preallocated capacity")
	}
	if coverage < minCoverage {
		r.fail(0, "layer self times cover %.3f of traced op time, below %.2f", coverage, minCoverage)
	}
}

// minCoverage is the stated tolerance of the traced split: the layers'
// self times must account for at least this share of the traced time;
// the rest is the benchmark's own glue between calls.
const minCoverage = 0.95

// addStats sums two engines' serving counters.
func addStats(a, b route.ShardedStats) route.ShardedStats {
	a.Batches += b.Batches
	a.Requests += b.Requests
	a.PrefilterSweeps += b.PrefilterSweeps
	a.PrefilterRejects += b.PrefilterRejects
	a.FastPath += b.FastPath
	a.Fallbacks += b.Fallbacks
	a.EndpointRejects += b.EndpointRejects
	return a
}

// routeCounts records the engines' serving counters over one pass, from
// their sums before (st0) and after (st).
func (r *report) routeCounts(st0, st route.ShardedStats) {
	batches := st.Batches - st0.Batches
	requests := st.Requests - st0.Requests
	sweeps := st.PrefilterSweeps - st0.PrefilterSweeps
	prefRejects := st.PrefilterRejects - st0.PrefilterRejects
	fast := st.FastPath - st0.FastPath
	fallbacks := st.Fallbacks - st0.Fallbacks
	endpointRejects := st.EndpointRejects - st0.EndpointRejects
	r.count("route.batch_size", ratio(requests, batches), "req/call")
	r.count("route.prefilter_sweeps_per_batch", ratio(sweeps, batches), "count")
	r.count("route.prefilter_rejects_per_sweep", ratio(prefRejects, sweeps), "count")
	r.count("route.fast_path_share", ratio(fast, requests), "share")
	r.count("route.fallbacks_per_batch", ratio(fallbacks, batches), "count")
	r.count("route.endpoint_reject_share", ratio(endpointRejects, requests), "share")
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// quantile is the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(i, 0)]
}

func median(xs []float64) float64 {
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	n := len(ys)
	if n%2 == 1 {
		return ys[n/2]
	}
	return (ys[n/2-1] + ys[n/2]) / 2
}

// timedSetups runs build k times and returns the last system with every
// build's host-adjusted duration in seconds, scaled by the median of the
// two host readings just before and the two just after it. Earlier systems are
// dropped before the next build so only one is live at a time.
func timedSetups[T any](k int, build func() (T, error)) (T, []float64, error) {
	var sys T
	secs := make([]float64, 0, k)
	for i := 0; i < k; i++ {
		var zero T
		sys = zero
		runtime.GC()
		host := newHostRef(4)
		host.bracket()
		t0 := time.Now()
		s, err := build()
		if err != nil {
			return zero, nil, err
		}
		d := time.Since(t0)
		host.bracket()
		secs = append(secs, d.Seconds()*refNominalUS/median(host.all))
		sys = s
	}
	return sys, secs, nil
}

// liveHeap is the heap still reachable after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// checkRepeats compares the run's exact-repeat values with those an
// earlier run of the same binary, workload, seed and op count recorded,
// then records the union. Any difference fails the run.
func checkRepeats(dir, key string, rep *report) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	bin, err := os.ReadFile(exe)
	if err != nil {
		return err
	}
	sum := sha256.Sum256(bin)
	path := filepath.Join(dir, "repeats", key+"-"+hex.EncodeToString(sum[:8])+".json")
	seen := map[string]float64{}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &seen); err != nil {
			return fmt.Errorf("reading %s: %w", path, err)
		}
	}
	names := make([]string, 0, len(rep.counts))
	for name := range rep.counts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := rep.counts[name]
		if old, ok := seen[name]; ok && old != v {
			rep.fail(0, "exact repeat: %s is %v, an earlier run of this seed gave %v", name, v, old)
		}
		seen[name] = v
	}
	b, err := json.Marshal(seen)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: theorem2-n64 | serve-n256 | epochs-n4096")
	seed := fs.Uint64("seed", 1, "seed every input is generated from")
	seconds := fs.Int("seconds", 10, "fixes the op count: the workload's nominal rate times this")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer split from an extra traced pass")
	outDir := fs.String("out", ".bench_build/e2ebench", "directory for exact-repeat records and span dumps")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "e2ebench: need --workload (theorem2-n64|serve-n256|epochs-n4096), --seconds >= 1, --trace 0|1\n")
		return 2
	}
	cfg := runConfig{
		seed:   *seed,
		ops:    w.opsPerSec * *seconds,
		warm:   w.warm,
		setups: w.setups,
		trace:  *trace == 1,
		outDir: *outDir,
	}
	return execute(w, cfg, stdout, stderr)
}

// execute runs one configured invocation and prints its result line. It
// exits 1, after printing, when any check failed.
func execute(w *workload, cfg runConfig, stdout, stderr io.Writer) int {
	rep := newReport()
	if err := w.run(cfg, rep); err != nil {
		fmt.Fprintf(stderr, "e2ebench: %s: %v\n", w.name, err)
		return 1
	}
	key := fmt.Sprintf("%s-s%d-n%d", w.name, cfg.seed, cfg.ops)
	if err := checkRepeats(cfg.outDir, key, rep); err != nil {
		fmt.Fprintf(stderr, "e2ebench: exact-repeat record: %v\n", err)
		return 1
	}
	for name := range rep.metrics {
		if isEndToEnd(name) == cfg.trace {
			delete(rep.metrics, name)
		}
	}
	for _, p := range rep.problems {
		fmt.Fprintf(stderr, "e2ebench: CHECK FAILED: %s\n", p)
	}
	res := result{
		Correct:   len(rep.problems) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.metrics,
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !res.Correct {
		return 1
	}
	return 0
}

var endToEndNames = map[string]bool{
	"ops_per_s": true, "op_p50_us": true, "op_p95_us": true, "accept_share": true,
	"behind_p99": true, "heap_mb": true, "setup_s": true,
}

func isEndToEnd(name string) bool { return endToEndNames[name] }
