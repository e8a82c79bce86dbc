package stats

import (
	"cmp"
	"slices"
	"sync"

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
// already, a heap gets it from canonicalOrder.
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
	sc := orderPool.Get().(*orderScratch)
	for _, i := range s.canonicalOrder(sc) {
		e.Uvarint(s.items[i].key)
		e.F64(s.items[i].val)
	}
	orderPool.Put(sc)
}

// orderScratch is the pair of index arrays canonicalOrder sorts
// between. Pooled, not kept on the Sample: a full duration sample's
// pair is 256 KiB, and a query store holds one sample per hourly
// bucket.
type orderScratch struct{ a, b []uint32 }

var orderPool = sync.Pool{New: func() any { return new(orderScratch) }}

// canonicalOrder returns the indexes of s.items in ascending (key,
// value) order, leaving the heap untouched: an LSD radix sort of the
// indexes on the eight key bytes, then each run of equal keys ordered by
// value. The result aliases sc.
func (s *Sample) canonicalOrder(sc *orderScratch) []uint32 {
	items, n := s.items, len(s.items)
	if n == 0 {
		return nil
	}
	if cap(sc.a) < n {
		sc.a, sc.b = make([]uint32, n), make([]uint32, n)
	}
	src, dst := sc.a[:n], sc.b[:n]
	var count [8][256]uint32
	for i, it := range items {
		src[i] = uint32(i)
		for d := range count {
			count[d][byte(it.key>>(8*d))]++
		}
	}
	for d := range count {
		c, shift := &count[d], 8*d
		if c[byte(items[0].key>>shift)] == uint32(n) {
			continue // every key has the same byte here
		}
		var sum uint32
		for b, cnt := range c {
			c[b], sum = sum, sum+cnt
		}
		for _, i := range src {
			b := byte(items[i].key >> shift)
			dst[c[b]] = i
			c[b]++
		}
		src, dst = dst, src
	}
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && items[src[hi]].key == items[src[lo]].key {
			hi++
		}
		if hi-lo > 1 {
			slices.SortFunc(src[lo:hi], func(a, b uint32) int {
				return cmp.Compare(items[a].val, items[b].val)
			})
		}
		lo = hi
	}
	return src
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
