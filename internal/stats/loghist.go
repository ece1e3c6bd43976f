package stats

import (
	"math"
	"math/bits"
)

// Log-linear histogram bucketing (HDR-histogram style): values below
// 2^logHistSubBits are recorded exactly, and every power-of-two range
// above is split into 2^logHistSubBits equal sub-buckets, so the relative
// quantization error is bounded by 2^-logHistSubBits (~3.1%) at every
// magnitude. The bucket count is a compile-time constant, which is what
// makes LogHist a fixed-footprint, allocation-free streaming structure:
// the serve loop's per-event Observe is two array increments.
const (
	logHistSubBits  = 5
	logHistSubCount = 1 << logHistSubBits // 32
	// Highest index: exponent 63 contributes buckets
	// (63-logHistSubBits)*32 + [32,64).
	logHistBuckets = (63-logHistSubBits)*logHistSubCount + 2*logHistSubCount
)

// logBucketOf maps a value to its bucket index. Values < 32 map to
// themselves; larger values map to (e-5)*32 + top-6-bits, where e is the
// index of the leading bit.
func logBucketOf(v uint64) int {
	if v < logHistSubCount {
		return int(v)
	}
	e := uint(bits.Len64(v) - 1) // >= logHistSubBits
	shift := e - logHistSubBits
	return int((e-logHistSubBits)<<logHistSubBits) + int(v>>shift)
}

// logBucketLow returns the smallest value mapping to bucket b — the
// representative Quantile reports.
func logBucketLow(b int) uint64 {
	if b < logHistSubCount {
		return uint64(b)
	}
	q := uint(b >> logHistSubBits) // >= 1
	m := uint64(b) - uint64(q-1)<<logHistSubBits
	return m << (q - 1)
}

// LogHist is a fixed-footprint log-scale histogram of non-negative
// integer observations, built for SLO latency tails: Observe is
// allocation-free (two array increments), and Quantile answers p50/p99/
// p999 with relative error at most 1/32 at any magnitude. The zero value
// is an empty histogram ready for use; copying a LogHist copies its
// counts (it contains no pointers).
type LogHist struct {
	counts [logHistBuckets]uint64
	n      uint64
	max    uint64
	sum    float64
}

// Observe records v.
func (h *LogHist) Observe(v uint64) {
	h.counts[logBucketOf(v)]++
	h.n++
	if v > h.max {
		h.max = v
	}
	h.sum += float64(v)
}

// Max returns the largest observation (exact, not quantized).
func (h *LogHist) Max() uint64 { return h.max }

// Mean returns the mean observation (0 when empty).
func (h *LogHist) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// Quantile returns the q-quantile (0 <= q <= 1) as the lower bound of the
// bucket holding the rank-⌈q·n⌉ observation. Exact for values < 32;
// within 1/32 relative error above. An empty histogram yields 0.
func (h *LogHist) Quantile(q float64) uint64 {
	if h.n == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(h.n)))
	if target < 1 {
		target = 1
	}
	if target > h.n {
		target = h.n
	}
	var cum uint64
	for b := range h.counts {
		cum += h.counts[b]
		if cum >= target {
			return logBucketLow(b)
		}
	}
	return h.max
}

// Merge folds o into h (parallel reduction of per-worker histograms).
func (h *LogHist) Merge(o *LogHist) {
	for b := range h.counts {
		h.counts[b] += o.counts[b]
	}
	h.n += o.n
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}

// Reset empties the histogram.
func (h *LogHist) Reset() { *h = LogHist{} }
