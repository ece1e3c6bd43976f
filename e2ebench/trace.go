package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"ftcsn/internal/netsim"
	"ftcsn/internal/route"
	"ftcsn/internal/stats"
)

// spanName identifies the layer boundary a span was recorded at.
type spanName uint8

const (
	spPass       spanName = iota // one stretch of a timed pass (a root)
	spOp                         // one workload op: a trial or an epoch
	spHarness                    // montecarlo.RunWith
	spStartBlock                 // the scratch's montecarlo.BlockStarter hook
	spFillStream                 // fault.BatchInjector.FillStream
	spApplyNext                  // fault.BatchInjector.ApplyNext
	spWitness                    // fault.Instance.ShortedTerminalsFromList
	spMaskApply                  // core.MaskUpdater.Apply + ChangedVertices (+ pending-diff merge)
	spCertify                    // core.Network.MajorityAccessInto
	spReset                      // route.Engine.Reset
	spGuide                      // route.Engine.MasksChangedDiff
	spConnect                    // route.Engine.ConnectBatch
	spDisconnect                 // route.Engine.Disconnect
	spChurn                      // netsim.ChurnDriver.Run
	spServe                      // netsim.Loop.Serve
	spSourceNext                 // netsim.Source.Next
	spGlue                       // the benchmark's own bookkeeping inside a layer's span
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"bench.pass", "bench.op", "montecarlo.run_with", "montecarlo.start_block",
	"fault.fill_stream", "fault.apply_next", "fault.witness", "core.mask_apply",
	"core.certify", "route.reset", "route.guide_refresh", "route.connect_batch",
	"route.disconnect", "netsim.churn", "netsim.serve", "netsim.source_next",
	"bench.glue",
}

// span is one timed call at a layer boundary. Times are nanoseconds since
// the tracer's base; parent indexes the enclosing span (-1 for a root) and
// op is the workload op the call belongs to.
type span struct {
	start, end int64
	parent, op int32
	name       spanName
}

// tracer records spans into a buffer allocated up front: begin appends
// within capacity and never grows it, so recording allocates nothing per
// op. A nil tracer, or one that is off, records nothing — the same call
// sites serve the untraced passes. One goroutine only.
type tracer struct {
	on       bool
	base     time.Time
	spans    []span
	cur      int32 // innermost open span, -1 at top level
	op       int32
	overflow bool
}

func newTracer(capacity int) *tracer {
	return &tracer{spans: make([]span, 0, capacity), cur: -1}
}

// start clears the buffer and turns recording on.
func (t *tracer) start() {
	t.spans = t.spans[:0]
	t.cur = -1
	t.op = 0
	t.overflow = false
	t.base = time.Now()
	t.on = true
}

func (t *tracer) stop() { t.on = false }

// begin opens a span and returns its index, or -1 when nothing is recorded.
func (t *tracer) begin(n spanName) int32 {
	if t == nil || !t.on {
		return -1
	}
	if len(t.spans) == cap(t.spans) {
		t.overflow = true
		return -1
	}
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{name: n, parent: t.cur, op: t.op, start: int64(time.Since(t.base))})
	t.cur = i
	return i
}

// end closes the span begin returned.
func (t *tracer) end(i int32) {
	if i < 0 {
		return
	}
	t.spans[i].end = int64(time.Since(t.base))
	t.cur = t.spans[i].parent
}

// setOp tags the spans begun from now on with workload op id.
func (t *tracer) setOp(id int) {
	if t != nil {
		t.op = int32(id)
	}
}

// selfNanos folds the buffer into per-name self time: a span's duration
// minus the part of it its child spans cover.
func (t *tracer) selfNanos() [numSpanNames]int64 {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	var self [numSpanNames]int64
	for i, s := range t.spans {
		self[s.name] += s.end - s.start - child[i]
	}
	return self
}

// rootNanos is the summed duration of the top-level spans.
func (t *tracer) rootNanos() int64 {
	var d int64
	for _, s := range t.spans {
		if s.parent < 0 {
			d += s.end - s.start
		}
	}
	return d
}

// writeSpans writes the buffer as gzipped tab-separated text, one span a
// line.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw, err := gzip.NewWriterLevel(f, gzip.BestSpeed)
	if err != nil {
		f.Close()
		return err
	}
	w := bufio.NewWriterSize(zw, 1<<20)
	fmt.Fprintln(w, "id\tparent\top\tname\tstart_ns\tend_ns")
	var line []byte
	for i, s := range t.spans {
		line = strconv.AppendInt(line[:0], int64(i), 10)
		line = append(line, '\t')
		line = strconv.AppendInt(line, int64(s.parent), 10)
		line = append(line, '\t')
		line = strconv.AppendInt(line, int64(s.op), 10)
		line = append(line, '\t')
		line = append(line, spanNames[s.name]...)
		line = append(line, '\t')
		line = strconv.AppendInt(line, s.start, 10)
		line = append(line, '\t')
		line = strconv.AppendInt(line, s.end, 10)
		line = append(line, '\n')
		w.Write(line)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// recEngine decorates the route.Engine a workload drives. Untraced, it
// records only what the output checks and metrics need and reads no clock:
// an FNV-1a hash of every ConnectBatch decision and path in request order
// (optionally one hash per request) and the events-behind position of
// every request (its distance from the batch tail, as stats.SLO counts
// it). With a tracer on, each call
// is also a span. Recording happens after the span closes, so its cost
// lands in the caller's self time.
type recEngine struct {
	eng route.Engine
	tr  *tracer

	hash   uint64
	perReq []uint64 // per-request hashes, appended while cap allows
	behind stats.LogHist
}

func newRecEngine(eng route.Engine, tr *tracer) *recEngine {
	return &recEngine{eng: eng, tr: tr, hash: fnvOffset}
}

// clear forgets everything recorded so far.
func (e *recEngine) clear() {
	e.hash = fnvOffset
	e.perReq = e.perReq[:0]
	e.behind.Reset()
}

func (e *recEngine) ConnectBatch(reqs []route.Request, res []route.Result) []route.Result {
	s := e.tr.begin(spConnect)
	res = e.eng.ConnectBatch(reqs, res)
	e.tr.end(s)
	k := len(reqs)
	for i := 0; i < k; i++ {
		e.behind.Observe(uint64(k - 1 - i))
		p := res[i].Path
		h := uint64(fnvOffset)
		h = (h ^ uint64(len(p))) * fnvPrime
		for _, v := range p {
			h = (h ^ uint64(uint32(v))) * fnvPrime
		}
		e.hash = (e.hash ^ h) * fnvPrime
		if len(e.perReq) < cap(e.perReq) {
			e.perReq = append(e.perReq, h)
		}
	}
	return res
}

func (e *recEngine) Disconnect(in, out int32) error {
	s := e.tr.begin(spDisconnect)
	err := e.eng.Disconnect(in, out)
	e.tr.end(s)
	return err
}

func (e *recEngine) Reset() {
	s := e.tr.begin(spReset)
	e.eng.Reset()
	e.tr.end(s)
}

func (e *recEngine) MasksChangedDiff(vertices, edges []int32) {
	s := e.tr.begin(spGuide)
	e.eng.MasksChangedDiff(vertices, edges)
	e.tr.end(s)
}

func (e *recEngine) MasksChanged() {
	s := e.tr.begin(spGuide)
	e.eng.MasksChanged()
	e.tr.end(s)
}

func (e *recEngine) PathOf(in, out int32) []int32 { return e.eng.PathOf(in, out) }
func (e *recEngine) Stats() route.EngineStats     { return e.eng.Stats() }
func (e *recEngine) SetMasksShared(vertexOK, edgeOK []bool, outAllowed []uint8) {
	e.eng.SetMasksShared(vertexOK, edgeOK, outAllowed)
}

// tracedSource times every Source.Next as its own span.
type tracedSource struct {
	src netsim.Source
	tr  *tracer
	n   int
}

func (s *tracedSource) Next(a *netsim.Arrival) bool {
	s.tr.setOp(s.n)
	s.n++
	sp := s.tr.begin(spSourceNext)
	ok := s.src.Next(a)
	s.tr.end(sp)
	return ok
}
