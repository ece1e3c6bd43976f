package stats

// Methods only tests call: production code has no use for them, so they
// live with the tests (see ftlint's deadexport rule).

// Count returns the number of observations.
func (h *LogHist) Count() uint64 { return h.n }

// Live returns the current live-circuit gauge.
func (s *SLO) Live() int64 { return s.live }

// Reset returns the SLO to its zero state.
func (s *SLO) Reset() { *s = SLO{} }

// N returns the number of observations.
func (s *Sample) N() int { return s.n }
