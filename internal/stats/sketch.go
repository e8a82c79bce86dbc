package stats

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
)

// This file holds the mergeable sketches that make every analysis
// accumulator shard-parallel: a logarithmic histogram whose quantiles
// are approximate to one bin width, and a deterministic bottom-k
// uniform sample whose merge result is independent of shard order.
// Both types merge commutatively, so an engine can split a record
// stream across workers and combine partials without changing the
// result.

// LogHist is a mergeable logarithmic histogram over positive values
// 1 .. ~1e5 with LogHistBase bin growth (~7% relative bin width).
// Values below 1 land in a dedicated zero bin. The zero value is
// ready to use.
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
	if x < logTableLen {
		if i := int(x); float64(i) == x {
			h.counts[logBins[i]]++
			return
		}
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

// logTableLen bounds the integral observations whose bin Add looks up
// rather than computes: the durations the engine counts are whole
// seconds, at most 600 once truncated, and a logarithm per record was
// ≈ 7 % of its work.
const logTableLen = 4096

// logBins[x] is logBin(x) for every integral x in [1, logTableLen),
// computed once by the very expression Add evaluates for every other x,
// so a lookup and a logarithm cannot disagree.
var logBins = func() (t [logTableLen]uint8) {
	for x := 1; x < logTableLen; x++ {
		t[x] = uint8(logBin(float64(x)))
	}
	return t
}()

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

// Sample is a deterministic mergeable uniform sample: it keeps the k
// items whose keys hash smallest (a bottom-k sketch). Feeding every
// item with a content-derived key makes the kept set — and therefore
// any statistic computed from it — independent of insertion and merge
// order, which is what lets sharded workers produce bit-identical
// results regardless of worker count. When the population is no
// larger than k the sample is the complete population and statistics
// over it are exact.
//
// The kept items live in a pool: an array in no particular order that
// holds the k smallest items seen, and possibly more. Add appends an
// item below the bound — the largest item the last trim kept — and,
// once the pool holds k + k/8 items, trims it: an in-place histogram
// selection keeps the k smallest and the largest of them becomes the
// bound. Appending and trimming in batches costs less than half of
// sifting every item through a max-heap of k. Snapshot, Values and
// Merge trim first. A restored sample holds the ascending run its
// snapshot stored, and Snapshot leaves a sample as one: a run is a pool
// too, which Add appends to as it is, and two runs merge in place
// without a selection (mergeRun) — all a sample restored to be folded
// or finalized is ever asked for.
type Sample struct {
	k     int
	n     int64
	run   bool         // items is an ascending run of at most k
	items []sampleItem // holds the k smallest items seen, ascending if run
	// bound is the largest item a trim kept, set once full: no item
	// that is not below it can be among the k smallest any more.
	bound sampleItem
	full  bool
}

type sampleItem struct {
	key uint64
	val float64
}

// NewSample returns a sample keeping at most k items. It panics on a
// non-positive k.
func NewSample(k int) *Sample {
	if k <= 0 {
		panic(fmt.Sprintf("stats: sample size %d must be positive", k))
	}
	preallocate := k
	if preallocate > 1024 {
		preallocate = 1024
	}
	return &Sample{k: k, items: make([]sampleItem, 0, preallocate)}
}

// Add offers one (key, value) item. Keys should be well-distributed
// hashes of item identity; ties on key are broken by value so the
// result stays deterministic under collisions.
func (s *Sample) Add(key uint64, v float64) {
	s.n++
	it := sampleItem{key: key, val: v}
	if s.full && !itemLess(it, s.bound) {
		return
	}
	if n, limit := len(s.items), s.poolLimit(); n >= limit {
		s.trim()
	} else if n == cap(s.items) {
		// Double, and once that reaches k go straight to the pool's
		// limit: append's own growth would end a full 32 768-item sample
		// far beyond it, a step to k and another to k + k/8 would leave
		// 512 KiB more garbage, and every worker set of an engine holds
		// one.
		c := max(2*n, 16)
		if c >= s.k {
			c = limit
		}
		s.items = append(make([]sampleItem, 0, c), s.items...)
	}
	s.items = append(s.items, it)
	s.run = false
}

// poolLimit is how many items the pool holds before a trim: k + k/8,
// 64 KiB beyond the k items of a full duration sample.
func (s *Sample) poolLimit() int { return s.k + max(s.k/8, 1) }

// itemLess orders items by (key, value) ascending.
func itemLess(a, b sampleItem) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return a.val < b.val
}

// compareItems is itemLess as a three-way comparison, for the sorts.
func compareItems(a, b sampleItem) int {
	switch {
	case itemLess(a, b):
		return -1
	case itemLess(b, a):
		return 1
	}
	return 0
}

// trim leaves the pool holding exactly its k smallest items, when it
// holds more.
func (s *Sample) trim() {
	if len(s.items) > s.k {
		s.mergeSelect(nil)
	}
}

// Merge folds another sample into s, leaving o as it was. Both must
// have the same k. Two runs merge into a run (mergeRun); any other
// pairing leaves s a pool of the k smallest of both item sets
// (mergeSelect), which trims both pools in one selection.
func (s *Sample) Merge(o *Sample) {
	if s.k != o.k {
		panic(fmt.Sprintf("stats: merging samples of size %d and %d", s.k, o.k))
	}
	s.n += o.n
	if s.run && o.run {
		s.mergeRun(o.items)
		return
	}
	s.mergeSelect(o.items)
}

// selectBits sizes the key histogram mergeSelect finds its cut with:
// 4 096 counters, 16 KiB of stack.
const selectBits = 12

// mergeSelect replaces s's items with the k smallest of them and b, in
// no particular order, in time linear in the two and in place; it is
// also how a full pool is trimmed (b empty). Keys are hashes, so their
// leading bits spread the items evenly: a histogram of the top
// selectBits below the largest key finds the bucket the k-th smallest
// item falls in; every item of a lower bucket stays, none of a higher
// one, and of that one bucket's few items — all of them, should an
// adversary make every key equal, which costs time, not correctness —
// the smallest by (key, value) fill what is left of k, the last of them
// becoming the bound. s's survivors are compacted where they are and
// b's are copied in behind them. Offering b's items one by one to a
// heap of s's leaves the same set at a sift each — 12 ms of an engine's
// serial tail when two workers' full 32 768-item duration samples meet
// — and a selection over a joined copy of both pays as much again to
// allocate it.
func (s *Sample) mergeSelect(b []sampleItem) {
	a := s.items
	s.run = false
	if len(a)+len(b) <= s.k {
		s.items = append(a, b...)
		return
	}
	both := [2][]sampleItem{a, b}
	var maxKey uint64
	for _, items := range both {
		for _, it := range items {
			maxKey = max(maxKey, it.key)
		}
	}
	shift := max(bits.Len64(maxKey)-selectBits, 0)
	var hist [1 << selectBits]int32
	for _, items := range both {
		for _, it := range items {
			hist[it.key>>shift]++
		}
	}
	// below items sit in buckets under edge, and edge's make it k or
	// more.
	edge, below := uint64(0), 0
	for below+int(hist[edge]) < s.k {
		below += int(hist[edge])
		edge++
	}
	// What stays is appended to a's own front: a write never passes
	// the item being read while a is walked, and b's follow on.
	onEdge := make([]sampleItem, 0, hist[edge])
	a = a[:0]
	for _, items := range both {
		for _, it := range items {
			switch bucket := it.key >> shift; {
			case bucket < edge:
				a = append(a, it)
			case bucket == edge:
				onEdge = append(onEdge, it)
			}
		}
	}
	slices.SortFunc(onEdge, compareItems)
	kept := onEdge[:s.k-below]
	s.items = append(a, kept...)
	s.bound, s.full = kept[len(kept)-1], true
}

// adoptRun makes an ascending run of at most k items s's pool; a run of
// k has its bound at the top.
func (s *Sample) adoptRun(run []sampleItem) {
	s.items, s.run = run, true
	if s.full = len(run) == s.k; s.full {
		s.bound = run[s.k-1]
	}
}

// mergeRun replaces s's run with the k smallest of it and b, another
// run, in place and from the back: once the two runs' tops are trimmed
// to k items between them, each item of b goes to its final slot and
// the block of s's items above it moves up as one. Nothing is allocated
// beyond growing s to the merged size, and the work is the items of b
// that stay plus one move of the part of s they land in — a full run
// folding in an hour's few hundred items does not rewrite its 32 768.
func (s *Sample) mergeRun(b []sampleItem) {
	a := s.items
	i, j := len(a), len(b)
	for i+j > s.k {
		if j == 0 || (i > 0 && itemLess(b[j-1], a[i-1])) {
			i--
		} else {
			j--
		}
	}
	t := i + j // a[:t] is where the i + j items still to place end up
	a = slices.Grow(a, t-len(a))[:t]
	for ; j > 0; j-- {
		lo := above(a[:i], b[j-1])
		t -= i - lo
		copy(a[t:], a[lo:i])
		i = lo
		t--
		a[t] = b[j-1]
	}
	s.adoptRun(a)
}

// above returns how many items of the ascending run a are not greater
// than x: the index x's successors start at. It gallops down from the
// top, where a merge from the back expects the answer.
func above(a []sampleItem, x sampleItem) int {
	hi, step := len(a), 1 // every item of a[hi:] is greater than x
	for hi >= step && itemLess(x, a[hi-step]) {
		hi -= step
		step *= 2
	}
	lo := max(hi-step, -1) // a[lo] is not greater than x, or lo is -1
	for hi-lo > 1 {
		if mid := lo + (hi-lo)/2; itemLess(x, a[mid]) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// Complete reports whether the sample holds the entire population, in
// which case statistics over Values are exact.
func (s *Sample) Complete() bool { return s.n <= int64(s.k) }

// Values returns the sampled values in ascending order. It trims the
// pool, so it needs the same exclusion as Add.
func (s *Sample) Values() []float64 {
	s.trim()
	out := make([]float64, len(s.items))
	for i, it := range s.items {
		out[i] = it.val
	}
	sort.Float64s(out)
	return out
}
