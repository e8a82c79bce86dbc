package stats

import (
	"cmp"
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
// regardless of internal form or heap layout: a run is that order
// already, and a heap is put into the reverse of it where it lies
// (sortHeapDescending) and written from the back.
func (s *Sample) Snapshot(e *snapshot.Encoder) {
	e.Uvarint(uint64(s.k))
	e.Varint(s.n)
	e.Uvarint(uint64(len(s.items)))
	if s.run {
		for _, it := range s.items {
			e.Uvarint(it.key)
			e.F64(it.val)
		}
		return
	}
	sortHeapDescending(s.items)
	for i := len(s.items) - 1; i >= 0; i-- {
		e.Uvarint(s.items[i].key)
		e.F64(s.items[i].val)
	}
}

// insertionSortMax is the most items sortHeapDescending orders by
// insertion: a whole sample that short, or one radix bucket of a longer
// one — keys that are hashes leave eight items in a bucket.
const insertionSortMax = 48

// sortHeapDescending orders a max-heap's items by (key, value), largest
// first, in place and without scratch. A descending array is a max-heap
// — every parent precedes its children — so the sorted sample is still
// the heap Add needs, and its snapshot order is the array read
// backwards; an index sort beside the heap would leave it alone at the
// price of two index arrays, 256 KiB for a full duration sample, live
// at the moment every worker of an engine encodes its set. One MSD
// radix pass (American flag: count, then cycle each item into its
// bucket) over the bits just below the largest key — for a full sample
// selectBits of them, the histogram mergeSelect cuts with — leaves
// buckets of a few items each, which an insertion sort finishes; a bucket an adversary filled with equal keys
// goes to a comparison sort, which costs time, not correctness. A heap
// sorted at the last cut that has taken few Adds since is mostly in
// place already, and both passes then run at their best.
func sortHeapDescending(items []sampleItem) {
	if len(items) <= insertionSortMax {
		insertionSortDescending(items)
		return
	}
	// As many radix bits as leave about eight items a bucket, selectBits
	// at most: the hourly samples a query store encodes hold a few hundred
	// items, and walking 4 096 buckets for them would cost more than the
	// sort. The root holds the largest key.
	radix := min(bits.Len(uint(len(items)))-3, selectBits)
	shift := max(bits.Len64(items[0].key)-radix, 0)
	// next[b] is where bucket b's next item goes, end[b] where the
	// bucket stops; the largest keys come first.
	var nextAll, endAll [1 << selectBits]int32
	next, end := nextAll[:1<<radix], endAll[:1<<radix]
	for _, it := range items {
		end[it.key>>shift]++
	}
	var sum int32
	for b := len(end) - 1; b >= 0; b-- {
		next[b] = sum
		sum += end[b]
		end[b] = sum
	}
	for b := len(end) - 1; b >= 0; b-- {
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
	for b := len(end) - 1; b >= 0; b-- {
		bucket := items[lo:end[b]]
		lo = int(end[b])
		if len(bucket) > insertionSortMax {
			slices.SortFunc(bucket, func(a, b sampleItem) int {
				if c := cmp.Compare(b.key, a.key); c != 0 {
					return c
				}
				return cmp.Compare(b.val, a.val)
			})
			continue
		}
		insertionSortDescending(bucket)
	}
}

func insertionSortDescending(items []sampleItem) {
	for i := 1; i < len(items); i++ {
		it, j := items[i], i
		for ; j > 0 && itemLess(items[j-1], it); j-- {
			items[j] = items[j-1]
		}
		items[j] = it
	}
}

// Restore replaces s with state written by Snapshot, kept as the
// ascending run it was written as: a linear decode. The stored
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
	s.n, s.items, s.run = n, items, true
}
