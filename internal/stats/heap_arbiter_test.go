package stats

// heapSample is Sample as it was while its kept items lived in a
// max-heap — every Add sifted through offer, up and down, and a merge
// offered the other side's items one by one — kept verbatim, bar the
// name and the run form it never needs, as the arbiter of the pool:
// TestSampleFormsMatchHeapOnly and TestSampleMergeHeapsMatchesOffer
// hold every pool to what this heap keeps.
type heapSample struct {
	k     int
	n     int64
	items []sampleItem // a max-heap
}

func newHeapSample(k int) *heapSample {
	preallocate := k
	if preallocate > 1024 {
		preallocate = 1024
	}
	return &heapSample{k: k, items: make([]sampleItem, 0, preallocate)}
}

func (s *heapSample) Add(key uint64, v float64) {
	s.n++
	s.offer(sampleItem{key: key, val: v})
}

// offer keeps it if it is among the k smallest seen.
func (s *heapSample) offer(it sampleItem) {
	if len(s.items) < s.k {
		if n := len(s.items); n == cap(s.items) {
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

func (s *heapSample) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !itemLess(s.items[p], s.items[i]) {
			return
		}
		s.items[p], s.items[i] = s.items[i], s.items[p]
		i = p
	}
}

func (s *heapSample) down(i int) {
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

func (s *heapSample) Complete() bool { return s.n == int64(len(s.items)) }

// offerLoopMerge is Sample.Merge as it was before mergeSelect, for a
// heap receiver: every item o holds offered to s's heap one by one. A
// pool may hold more than its k smallest items; offering those too
// leaves the same k, since the pool holds every item of o's population
// that can be among the k smallest of both.
func offerLoopMerge(s *heapSample, o *Sample) {
	s.n += o.n
	for _, it := range o.items {
		s.offer(it)
	}
}
