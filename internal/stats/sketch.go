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
	bin := int(math.Log(x) / math.Log(LogHistBase))
	if bin >= LogHistBins {
		bin = LogHistBins - 1
	}
	h.counts[bin]++
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

// Sample is a deterministic mergeable uniform sample: it keeps the k
// items whose keys hash smallest (a bottom-k sketch). Feeding every
// item with a content-derived key makes the kept set — and therefore
// any statistic computed from it — independent of insertion and merge
// order, which is what lets sharded workers produce bit-identical
// results regardless of worker count. When the population is no
// larger than k the sample is the complete population and statistics
// over it are exact.
//
// The kept items live in one of two forms. A sample that is being
// added to holds them as a max-heap, so the item to evict is at the
// root. A restored sample holds them as the ascending run its snapshot
// stored: two runs merge in place without a sift and a run snapshots
// without sorting, which is all a sample restored to be folded or
// finalized is ever asked for. The heap is built — the run reversed,
// which a max-heap already is — only when an Add arrives.
type Sample struct {
	k     int
	n     int64
	run   bool         // items is an ascending run, not a heap
	items []sampleItem // ascending by (key, value) if run, else a max-heap
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

// heapify turns a run into the heap Add works on.
func (s *Sample) heapify() {
	if s.run {
		slices.Reverse(s.items)
		s.run = false
	}
}

// Add offers one (key, value) item. Keys should be well-distributed
// hashes of item identity; ties on key are broken by value so the
// result stays deterministic under collisions.
func (s *Sample) Add(key uint64, v float64) {
	s.heapify()
	s.n++
	s.offer(sampleItem{key: key, val: v})
}

// offer keeps it if it is among the k smallest seen. s is a heap.
func (s *Sample) offer(it sampleItem) {
	if len(s.items) < s.k {
		if n := len(s.items); n == cap(s.items) {
			// Double, but never past k: append's own growth ends a full
			// 32 768-item sample on 37 376 slots, and every worker set of
			// an engine holds one.
			s.items = append(make([]sampleItem, 0, min(max(2*n, 16), s.k)), s.items...)
		}
		s.items = append(s.items, it)
		s.up(len(s.items) - 1)
		return
	}
	if !itemLess(it, s.items[0]) {
		return
	}
	s.items[0] = it
	s.down(0)
}

// itemLess orders items by (key, value) ascending.
func itemLess(a, b sampleItem) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return a.val < b.val
}

func (s *Sample) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !itemLess(s.items[p], s.items[i]) {
			return
		}
		s.items[p], s.items[i] = s.items[i], s.items[p]
		i = p
	}
}

func (s *Sample) down(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < len(s.items) && itemLess(s.items[largest], s.items[l]) {
			largest = l
		}
		if r < len(s.items) && itemLess(s.items[largest], s.items[r]) {
			largest = r
		}
		if largest == i {
			return
		}
		s.items[i], s.items[largest] = s.items[largest], s.items[i]
		i = largest
	}
}

// Merge folds another sample into s, leaving o as it was. Both must
// have the same k. Two runs merge into a run (mergeRun); any other
// pairing leaves s a heap of the k smallest of both item sets
// (mergeSelect).
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

// mergeSelect replaces s's items with the k smallest of them and b, as
// a heap, in time linear in the two and in place. Keys are hashes, so
// their leading bits spread the items evenly: a histogram of the top
// selectBits below the largest key finds the bucket the k-th smallest
// item falls in; every item of a lower bucket stays, none of a higher
// one, and of that one bucket's few items — all of them, should an
// adversary make every key equal, which costs time, not correctness —
// the smallest by (key, value) fill what is left of k. s's survivors
// are compacted where they are, b's are copied in behind them, and the
// whole is heapified bottom-up. Offering b's items to s's heap one by
// one leaves the same set at a sift each — 12 ms of an engine's serial
// tail when two workers' full 32 768-item duration samples meet — and a
// selection over a joined copy of both pays as much again to allocate
// it. Which layout of the set s ends up in shows nowhere: Snapshot and
// Values sort, and Add needs only the heap property.
func (s *Sample) mergeSelect(b []sampleItem) {
	a := s.items
	if len(a)+len(b) <= s.k {
		a = append(a, b...)
	} else {
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
		sort.Slice(onEdge, func(i, j int) bool { return itemLess(onEdge[i], onEdge[j]) })
		a = append(a, onEdge[:s.k-below]...)
	}
	s.items, s.run = a, false
	for i := len(a)/2 - 1; i >= 0; i-- {
		s.down(i)
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
	s.items = a
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
func (s *Sample) Complete() bool { return s.n == int64(len(s.items)) }

// Values returns the sampled values in ascending order.
func (s *Sample) Values() []float64 {
	out := make([]float64, len(s.items))
	for i, it := range s.items {
		out[i] = it.val
	}
	sort.Float64s(out)
	return out
}
