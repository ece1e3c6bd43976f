// Package stats provides the small statistical toolkit used by the
// Monte-Carlo experiments: streaming means, binomial proportion
// confidence intervals, log-bucketed latency histograms, SLO accounting,
// and fixed-width table rendering for the benchmark harness.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// Sample accumulates a streaming mean (Welford's update). The zero value
// is an empty sample.
type Sample struct {
	n    int
	mean float64
}

// Add incorporates x into the sample.
func (s *Sample) Add(x float64) {
	s.n++
	d := x - s.mean
	s.mean += d / float64(s.n)
}

// Mean returns the sample mean (0 for an empty sample).
func (s *Sample) Mean() float64 { return s.mean }

// Merge folds t into s (parallel reduction of per-worker samples).
func (s *Sample) Merge(t *Sample) {
	if t.n == 0 {
		return
	}
	if s.n == 0 {
		*s = *t
		return
	}
	n1, n2 := float64(s.n), float64(t.n)
	d := t.mean - s.mean
	tot := n1 + n2
	s.mean += d * n2 / tot
	s.n += t.n
}

// Proportion is a success counter for Bernoulli trials.
type Proportion struct {
	Successes, Trials int
}

// Add records one trial.
func (p *Proportion) Add(success bool) {
	p.Trials++
	if success {
		p.Successes++
	}
}

// Merge folds q into p.
func (p *Proportion) Merge(q Proportion) {
	p.Successes += q.Successes
	p.Trials += q.Trials
}

// Estimate returns the point estimate of the success probability.
func (p Proportion) Estimate() float64 {
	if p.Trials == 0 {
		return 0
	}
	return float64(p.Successes) / float64(p.Trials)
}

// Wilson returns the Wilson score interval at confidence level given by z
// (z=1.96 for 95%). Wilson behaves sensibly at the extremes p̂∈{0,1}, which
// matter here: many failure probabilities in the paper are designed to be
// astronomically small and we frequently observe zero failures.
func (p Proportion) Wilson(z float64) (lo, hi float64) {
	if p.Trials == 0 {
		return 0, 1
	}
	n := float64(p.Trials)
	ph := p.Estimate()
	z2 := z * z
	den := 1 + z2/n
	center := (ph + z2/(2*n)) / den
	half := z / den * math.Sqrt(ph*(1-ph)/n+z2/(4*n*n))
	lo, hi = center-half, center+half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// String renders the proportion with its 95% Wilson interval.
func (p Proportion) String() string {
	lo, hi := p.Wilson(1.96)
	return fmt.Sprintf("%.4f [%.4f,%.4f] (n=%d)", p.Estimate(), lo, hi, p.Trials)
}

// Table renders aligned experiment tables. Columns are sized to their
// widest cell; the output is Markdown-compatible.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable returns a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{header: header} }

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = FormatFloat(v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// FormatFloat renders a float compactly: integers exactly, small numbers in
// scientific notation, everything else with four significant decimals.
func FormatFloat(v float64) string {
	a := math.Abs(v)
	if a != 0 && (a < 1e-3 || a >= 1e7) {
		return fmt.Sprintf("%.3e", v)
	}
	if v == math.Trunc(v) {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.4f", v)
}

// String renders the table in Markdown.
func (t *Table) String() string {
	width := make([]int, len(t.header))
	for i, h := range t.header {
		width[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		b.WriteString("|")
		for i := range width {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			fmt.Fprintf(&b, " %-*s |", width[i], c)
		}
		b.WriteString("\n")
	}
	writeRow(t.header)
	b.WriteString("|")
	for _, w := range width {
		b.WriteString(strings.Repeat("-", w+2))
		b.WriteString("|")
	}
	b.WriteString("\n")
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}
