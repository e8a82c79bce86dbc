package stats

import "math"

// LogHist is a mergeable logarithmic histogram over positive values
// 1 .. ~1e5 with LogHistBase bin growth (~7% relative bin width), so
// its quantiles are approximate to one bin; the latency timers of
// internal/obs keep one over milliseconds. Values below 1 land in a
// dedicated zero bin. The zero value is ready to use.
type LogHist struct {
	counts [LogHistBins]int64
	total  int64
	zero   int64
}

// Logarithmic layout: LogHistBase^LogHistBins ≈ 1e5, covering one
// full day of seconds with ~7% resolution.
const (
	LogHistBase = 1.07
	LogHistBins = 170
)

// Add counts one observation.
func (h *LogHist) Add(x float64) {
	h.total++
	if x < 1 {
		h.zero++
		return
	}
	h.counts[logBin(x)]++
}

// logBin returns the bin of an observation x ≥ 1.
func logBin(x float64) int {
	bin := int(math.Log(x) / math.Log(LogHistBase))
	if bin >= LogHistBins {
		bin = LogHistBins - 1
	}
	return bin
}

// Merge adds another histogram's counts into h.
func (h *LogHist) Merge(o *LogHist) {
	h.total += o.total
	h.zero += o.zero
	for i := range h.counts {
		h.counts[i] += o.counts[i]
	}
}

// Quantile returns the approximate q-quantile: the midpoint (in log
// space) of the bin containing the ceil(q·n)-th smallest observation.
// q is clamped to [0, 1]; q = 1 lands in the highest occupied bin
// rather than overshooting the histogram range. An empty histogram
// returns 0.
func (h *LogHist) Quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	// Standard ceil rank: the k-th smallest with k = ceil(q·n), at
	// least 1. The previous floor-based target was biased at small
	// totals (e.g. the median of 2 observations selected the 2nd).
	rank := int64(math.Ceil(q * float64(h.total)))
	if rank < 1 {
		rank = 1
	}
	if rank > h.total {
		rank = h.total
	}
	cum := h.zero
	if cum >= rank {
		return 0
	}
	last := 0.0
	for bin := 0; bin < LogHistBins; bin++ {
		c := h.counts[bin]
		if c == 0 {
			continue
		}
		cum += c
		last = math.Pow(LogHistBase, float64(bin)+0.5)
		if cum >= rank {
			return last
		}
	}
	// Unreachable when counts are consistent with total; return the
	// highest occupied bin rather than the histogram's top edge.
	return last
}
