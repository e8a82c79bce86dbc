package stats

import (
	"math/bits"
	"slices"

	"cellcars/internal/snapshot"
)

// This file gives the two statistics structures a snapshot contains —
// LogHist and Sample, the duration stage's sketch and bottom-k sample —
// a codec, so that stage can persist its partial state and resume it
// bit-identically. Encoding is deterministic (sparse layouts
// are emitted in ascending key order) and every Restore validates the
// decoded shape, reporting corruption through the decoder's sticky
// ErrBadSnapshot instead of panicking.

// Snapshot serializes the log histogram as a sparse (bin, count) list.
func (h *LogHist) Snapshot(e *snapshot.Encoder) {
	e.Varint(h.total)
	e.Varint(h.zero)
	nonzero := 0
	for _, c := range h.counts {
		if c != 0 {
			nonzero++
		}
	}
	e.Uvarint(uint64(nonzero))
	for bin, c := range h.counts {
		if c != 0 {
			e.Uvarint(uint64(bin))
			e.Varint(c)
		}
	}
}

// Restore replaces h with state written by Snapshot.
func (h *LogHist) Restore(d *snapshot.Decoder) {
	total, zero := d.Varint(), d.Varint()
	n := d.Len(LogHistBins)
	if d.Err() != nil {
		return
	}
	if total < 0 || zero < 0 {
		d.Failf("log histogram totals negative")
		return
	}
	var counts [LogHistBins]int64
	sum := zero
	for i := 0; i < n; i++ {
		bin := d.Len(LogHistBins - 1)
		c := d.Varint()
		if d.Err() != nil {
			return
		}
		if c < 0 {
			d.Failf("log histogram bin %d count %d negative", bin, c)
			return
		}
		counts[bin] = c
		sum += c
	}
	if sum != total {
		d.Failf("log histogram counts sum %d but total is %d", sum, total)
		return
	}
	h.total, h.zero, h.counts = total, zero, counts
}

// Snapshot serializes the bottom-k sample. Items are emitted in
// ascending (key, value) order so equal samples encode identically
// regardless of how their pools lie: a run is that order already, and a
// pool is trimmed and sorted where it lies (sortRun), which leaves the
// sample a run — so Snapshot mutates it, and needs the same exclusion as
// Add (the engine's barrier, the query store's mutex).
func (s *Sample) Snapshot(e *snapshot.Encoder) {
	if !s.run {
		s.trim()
		sortRun(s.items)
		s.adoptRun(s.items)
	}
	e.Uvarint(uint64(s.k))
	e.Varint(s.n)
	e.Uvarint(uint64(len(s.items)))
	for _, it := range s.items {
		e.Uvarint(it.key)
		e.F64(it.val)
	}
}

// insertionSortMax is the most items sortRun orders by insertion: a
// whole sample that short, or one radix bucket of a longer one — keys
// that are hashes leave eight items in a bucket.
const insertionSortMax = 48

// sortRun orders a pool's items by (key, value) ascending, in place and
// without scratch; an index sort beside the pool would cost two index
// arrays, 256 KiB for a full duration sample, live at the moment every
// worker of an engine encodes its set. One MSD radix pass (American
// flag: count, then cycle each item into its bucket) over the bits just
// below the largest key — for a full sample selectBits of them, the
// histogram mergeSelect cuts with — leaves buckets of a few items each,
// which an insertion sort finishes; a bucket an adversary filled with
// equal keys goes to a comparison sort, which costs time, not
// correctness.
func sortRun(items []sampleItem) {
	if len(items) <= insertionSortMax {
		insertionSort(items)
		return
	}
	// As many radix bits as leave about eight items a bucket, selectBits
	// at most: the hourly samples a query store encodes hold a few hundred
	// items, and walking 4 096 buckets for them would cost more than the
	// sort.
	radix := min(bits.Len(uint(len(items)))-3, selectBits)
	var maxKey uint64
	for _, it := range items {
		maxKey = max(maxKey, it.key)
	}
	shift := max(bits.Len64(maxKey)-radix, 0)
	// next[b] is where bucket b's next item goes, end[b] where the
	// bucket stops.
	var nextAll, endAll [1 << selectBits]int32
	next, end := nextAll[:1<<radix], endAll[:1<<radix]
	for _, it := range items {
		end[it.key>>shift]++
	}
	var sum int32
	for b := range end {
		next[b] = sum
		sum += end[b]
		end[b] = sum
	}
	for b := range end {
		for i := next[b]; i < end[b]; i = next[b] {
			it := items[i]
			for d := it.key >> shift; d != uint64(b); d = it.key >> shift {
				items[next[d]], it = it, items[next[d]]
				next[d]++
			}
			items[i] = it
			next[b]++
		}
	}
	lo := 0
	for b := range end {
		bucket := items[lo:end[b]]
		lo = int(end[b])
		if len(bucket) > insertionSortMax {
			slices.SortFunc(bucket, compareItems)
			continue
		}
		insertionSort(bucket)
	}
}

func insertionSort(items []sampleItem) {
	for i := 1; i < len(items); i++ {
		it, j := items[i], i
		for ; j > 0 && itemLess(it, items[j-1]); j-- {
			items[j] = items[j-1]
		}
		items[j] = it
	}
}

// Restore replaces s with state written by Snapshot, kept as the
// ascending run it was written as — a pool as it lies, which the next
// Add appends to: a linear decode. The stored
// capacity must match s's, the kept count must be min(n, k) — what any
// sequence of Adds and Merges leaves — and the items must be in
// (key, value) order.
func (s *Sample) Restore(d *snapshot.Decoder) {
	k := d.Len(1 << 30)
	n := d.Varint()
	if d.Err() != nil {
		return
	}
	if k != s.k {
		d.Failf("sample capacity %d does not match %d", k, s.k)
		return
	}
	count := d.Len(k)
	if d.Err() != nil {
		return
	}
	if n < int64(count) || (count < k && n != int64(count)) {
		d.Failf("sample of capacity %d keeps %d of a population of %d", k, count, n)
		return
	}
	items := make([]sampleItem, count)
	for i := range items {
		items[i] = sampleItem{key: d.Uvarint(), val: d.F64()}
		if d.Err() != nil {
			return
		}
		if i > 0 && itemLess(items[i], items[i-1]) {
			d.Failf("sample item %d out of (key, value) order", i)
			return
		}
	}
	s.n = n
	s.adoptRun(items)
}
