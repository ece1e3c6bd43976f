package stats

// SLO accumulates serving-quality statistics for an open-loop run:
// offered/accepted/rejected/departed counters, the live-circuit gauge
// with peaks, offered load in Erlangs, and the events-behind connect
// latency histogram. Everything is kept twice — cumulatively and for the
// current reporting window — so a long-running harness can print
// periodic windowed snapshots plus one final cumulative report. All
// times are virtual (the serve loop's clock); SLO never reads the wall
// clock, which is what keeps a (seed, config) run byte-reproducible.
//
// The zero value is ready for use. Not safe for concurrent use: one SLO
// per serve loop.
type SLO struct {
	cum  sloAccum
	win  sloAccum
	live int64
	now  float64
}

// sloAccum is one accumulation scope (cumulative or window).
type sloAccum struct {
	start       float64
	offered     int64
	accepted    int64
	rejected    int64
	departed    int64
	peakLive    int64
	holdOffered float64 // sum of offered holding times: load in Erlangs once divided by elapsed time
	lat         LogHist // events-behind connect latency, accepted and rejected alike
}

// ObserveConnect records one arrival decided at virtual time t: its
// requested holding time, its connect latency in events-behind terms
// (how many later arrivals were already due when this one was served —
// 0 means served at the head of its batch), and whether the engine
// admitted it.
//
//ftcsn:hotpath per-arrival accounting on the open-loop serve path
func (s *SLO) ObserveConnect(t, hold float64, behind uint64, accepted bool) {
	s.now = t
	s.cum.offered++
	s.win.offered++
	s.cum.holdOffered += hold
	s.win.holdOffered += hold
	s.cum.lat.Observe(behind)
	s.win.lat.Observe(behind)
	if !accepted {
		s.cum.rejected++
		s.win.rejected++
		return
	}
	s.cum.accepted++
	s.win.accepted++
	s.live++
	if s.live > s.cum.peakLive {
		s.cum.peakLive = s.live
	}
	if s.live > s.win.peakLive {
		s.win.peakLive = s.live
	}
}

// ObserveRelease records one departure at virtual time t.
//
//ftcsn:hotpath per-departure accounting on the open-loop serve path
func (s *SLO) ObserveRelease(t float64) {
	s.now = t
	s.live--
	s.cum.departed++
	s.win.departed++
}

// Live returns the current live-circuit gauge.
func (s *SLO) Live() int64 { return s.live }

// SLOSnapshot is a point-in-time summary of one accumulation scope.
// Latency quantiles are in events-behind terms (see LogHist for the
// quantization contract); OfferedLoad is in Erlangs — offered holding
// time per unit virtual time over [Start, End].
type SLOSnapshot struct {
	Start, End float64

	Offered, Accepted, Rejected, Departed int64
	Live, PeakLive                        int64

	RejectRate  float64 // Rejected / Offered (0 when nothing offered)
	OfferedLoad float64 // Erlangs over [Start, End] (0 when End <= Start)

	P50, P99, P999, MaxBehind uint64
	MeanBehind                float64
}

func (a *sloAccum) snapshot(live int64, now float64) SLOSnapshot {
	sn := SLOSnapshot{
		Start:     a.start,
		End:       now,
		Offered:   a.offered,
		Accepted:  a.accepted,
		Rejected:  a.rejected,
		Departed:  a.departed,
		Live:      live,
		PeakLive:  a.peakLive,
		P50:       a.lat.Quantile(0.50),
		P99:       a.lat.Quantile(0.99),
		P999:      a.lat.Quantile(0.999),
		MaxBehind: a.lat.Max(),
	}
	sn.MeanBehind = a.lat.Mean()
	if a.offered > 0 {
		sn.RejectRate = float64(a.rejected) / float64(a.offered)
	}
	if now > a.start {
		sn.OfferedLoad = a.holdOffered / (now - a.start)
	}
	return sn
}

// Snapshot summarizes everything observed since the last Reset.
func (s *SLO) Snapshot() SLOSnapshot { return s.cum.snapshot(s.live, s.now) }

// Window summarizes everything observed since the previous Window call
// (or Reset), then starts a fresh window at the current virtual time
// with the peak gauge re-armed to the current live count.
func (s *SLO) Window() SLOSnapshot {
	sn := s.win.snapshot(s.live, s.now)
	s.win = sloAccum{start: s.now, peakLive: s.live}
	return sn
}

// Reset returns the SLO to its zero state.
func (s *SLO) Reset() { *s = SLO{} }
