package stats

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"sort"
	"testing"

	"cellcars/internal/snapshot"
)

// roundTrip encodes via snap, decodes via restore, and fails on any
// codec error.
func roundTrip(t *testing.T, snap func(*snapshot.Encoder), restore func(*snapshot.Decoder)) {
	t.Helper()
	var buf bytes.Buffer
	e := snapshot.NewEncoder(&buf)
	snap(e)
	if e.Err() != nil {
		t.Fatalf("encode: %v", e.Err())
	}
	d := snapshot.NewDecoder(bytes.NewReader(buf.Bytes()))
	restore(d)
	if d.Err() != nil {
		t.Fatalf("restore: %v", d.Err())
	}
}

func TestLogHistSnapshotRoundTrip(t *testing.T) {
	var h LogHist
	rng := rand.New(rand.NewPCG(9, 9))
	for i := 0; i < 20000; i++ {
		h.Add(rng.Float64() * 2000)
	}
	var got LogHist
	roundTrip(t, h.Snapshot, got.Restore)
	if !reflect.DeepEqual(h, got) {
		t.Fatal("round trip mismatch")
	}
	for q := 0.0; q <= 1.0; q += 0.1 {
		if h.Quantile(q) != got.Quantile(q) {
			t.Fatalf("quantile %v differs", q)
		}
	}

	// Corrupt total: counts no longer sum to it.
	var buf bytes.Buffer
	e := snapshot.NewEncoder(&buf)
	e.Varint(h.total + 5)
	e.Varint(h.zero)
	e.Uvarint(0)
	var bad LogHist
	d := snapshot.NewDecoder(bytes.NewReader(buf.Bytes()))
	bad.Restore(d)
	if !errors.Is(d.Err(), snapshot.ErrBadSnapshot) {
		t.Fatalf("inconsistent total accepted: %v", d.Err())
	}
}

func TestSampleSnapshotRoundTrip(t *testing.T) {
	s := NewSample(256)
	rng := rand.New(rand.NewPCG(10, 10))
	for i := 0; i < 5000; i++ {
		s.Add(rng.Uint64(), rng.Float64()*600)
	}
	got := NewSample(256)
	roundTrip(t, s.Snapshot, got.Restore)
	if got.n != s.n || got.Complete() != s.Complete() {
		t.Fatalf("population: %d vs %d", got.n, s.n)
	}
	if !reflect.DeepEqual(s.Values(), got.Values()) {
		t.Fatal("kept values differ")
	}

	// The restored sample must keep the bottom-k property under
	// further adds: feed both the same extra stream and compare.
	for i := 0; i < 2000; i++ {
		k, v := rng.Uint64(), rng.Float64()*600
		s.Add(k, v)
		got.Add(k, v)
	}
	if !reflect.DeepEqual(s.Values(), got.Values()) {
		t.Fatal("post-restore adds diverged")
	}

	// Capacity mismatch is detected.
	var buf bytes.Buffer
	e := snapshot.NewEncoder(&buf)
	s.Snapshot(e)
	wrong := NewSample(16)
	d := snapshot.NewDecoder(bytes.NewReader(buf.Bytes()))
	wrong.Restore(d)
	if !errors.Is(d.Err(), snapshot.ErrBadSnapshot) {
		t.Fatalf("capacity mismatch accepted: %v", d.Err())
	}
}

// TestSampleSnapshotDeterministic: two samples holding the same item
// set in different pool layouts must encode to identical bytes.
func TestSampleSnapshotDeterministic(t *testing.T) {
	a := NewSample(64)
	b := NewSample(64)
	rng := rand.New(rand.NewPCG(11, 11))
	items := make([]sampleItem, 500)
	for i := range items {
		items[i] = sampleItem{key: rng.Uint64(), val: rng.Float64()}
	}
	for _, it := range items {
		a.Add(it.key, it.val)
	}
	for i := len(items) - 1; i >= 0; i-- {
		b.Add(items[i].key, items[i].val)
	}
	var ba, bb bytes.Buffer
	a.Snapshot(snapshot.NewEncoder(&ba))
	b.Snapshot(snapshot.NewEncoder(&bb))
	if !bytes.Equal(ba.Bytes(), bb.Bytes()) {
		t.Fatal("same sample content encoded differently")
	}
}

// referenceSnapshot is Sample.Snapshot of a sample of capacity k and
// population n holding items — a pool, or a heap — with its kept set and
// canonical order taken from a comparison sort on (key, value): what the
// selection and the radix order must reproduce byte for byte.
func referenceSnapshot(e *snapshot.Encoder, k int, n int64, items []sampleItem) {
	e.Uvarint(uint64(k))
	e.Varint(n)
	items = slices.Clone(items)
	slices.SortFunc(items, func(a, b sampleItem) int {
		if c := cmp.Compare(a.key, b.key); c != 0 {
			return c
		}
		return cmp.Compare(a.val, b.val)
	})
	items = items[:min(len(items), k)]
	e.Uvarint(uint64(len(items)))
	for _, it := range items {
		e.Uvarint(it.key)
		e.F64(it.val)
	}
}

func referenceSampleSnapshot(s *Sample, e *snapshot.Encoder) { referenceSnapshot(e, s.k, s.n, s.items) }

// TestSampleSnapshotMatchesComparisonSort: on random samples — empty,
// k = 1, fewer items than k, far more than k, keys confined to one
// byte, keys forced equal under different values — Snapshot writes the
// reference's bytes, and the bytes survive Restore → Snapshot.
func TestSampleSnapshotMatchesComparisonSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(12, 12))
	wide := func() uint64 { return rng.Uint64() }
	cases := []struct {
		name string
		k, n int
		key  func() uint64
	}{
		{"empty", 64, 0, wide},
		{"k=1", 1, 50, wide},
		{"one item", 64, 1, wide},
		{"n<k", 512, 200, wide},
		{"n>>k", 300, 20000, wide},
		{"full duration-sized sample", 32768, 100000, wide},
		{"one-byte keys", 400, 3000, func() uint64 { return rng.Uint64N(256) << 24 }},
		{"four distinct keys", 256, 1000, func() uint64 { return rng.Uint64N(4) * 0x0101010101010101 }},
		{"all keys equal", 200, 1000, func() uint64 { return 7 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSample(tc.k)
			for i := 0; i < tc.n; i++ {
				s.Add(tc.key(), float64(rng.IntN(50))-25+rng.Float64())
			}
			var got, want bytes.Buffer
			s.Snapshot(snapshot.NewEncoder(&got))
			referenceSampleSnapshot(s, snapshot.NewEncoder(&want))
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("radix order wrote %d bytes that differ from the comparison sort's %d", got.Len(), want.Len())
			}
			restored := NewSample(tc.k)
			d := snapshot.NewDecoder(bytes.NewReader(got.Bytes()))
			restored.Restore(d)
			if d.Err() != nil {
				t.Fatalf("restore: %v", d.Err())
			}
			var again bytes.Buffer
			restored.Snapshot(snapshot.NewEncoder(&again))
			if !bytes.Equal(again.Bytes(), got.Bytes()) {
				t.Fatal("restored sample re-encodes differently")
			}
		})
	}
}

// TestSampleSnapshotSortsInPlace: a pool's Snapshot trims and orders
// the items where they lie. For keys that are hashes, keys that collide
// under differing values, one key for every item, keys below the radix
// histogram's size and keys that share their leading bits (one radix
// bucket, the comparison sort's case), at 0, 1, k − 1 and k items and
// past k, the bytes are the comparison sort's — and the sample takes
// further Adds as a twin that was never snapshotted does, to the same
// n, Values and later Snapshot bytes.
func TestSampleSnapshotSortsInPlace(t *testing.T) {
	rng := rand.New(rand.NewPCG(29, 29))
	keys := []struct {
		name string
		key  func() uint64
	}{
		{"hashed", rng.Uint64},
		{"colliding", func() uint64 { return rng.Uint64N(40) << 40 }},
		{"all equal", func() uint64 { return 7 << 50 }},
		{"below 4096", func() uint64 { return rng.Uint64N(1 << selectBits) }},
		{"single bucket", func() uint64 { return 0xABC<<52 | rng.Uint64N(1<<20) }},
	}
	const k = 300
	for _, kc := range keys {
		for _, n := range []int{0, 1, k - 1, k, 5 * k} {
			t.Run(fmt.Sprintf("%s/n=%d", kc.name, n), func(t *testing.T) {
				s, twin := NewSample(k), NewSample(k)
				add := func(count int) {
					for i := 0; i < count; i++ {
						key, v := kc.key(), float64(rng.IntN(7))
						s.Add(key, v)
						twin.Add(key, v)
					}
				}
				add(n)
				for round := 0; round < 3; round++ {
					var got, want bytes.Buffer
					s.Snapshot(snapshot.NewEncoder(&got))
					referenceSampleSnapshot(twin, snapshot.NewEncoder(&want))
					if !bytes.Equal(got.Bytes(), want.Bytes()) {
						t.Fatalf("round %d: in-place order differs from the comparison sort's", round)
					}
					add(1 + rng.IntN(2*k))
					if s.n != twin.n || !reflect.DeepEqual(s.Values(), twin.Values()) {
						t.Fatalf("round %d: adds after a Snapshot diverge from a sample never snapshotted", round)
					}
				}
			})
		}
	}
}

// FuzzSampleOrder: for any items — 16 input bytes each, key then value —
// offered to a sample of k in 1..64, the pool's trim and in-place order
// are the comparison sort's. Values that are NaN or a signed zero are
// skipped: (key, value) does not order them, so no two sorts need agree
// on their bytes.
func FuzzSampleOrder(f *testing.F) {
	f.Add(uint8(3), []byte("0123456789abcdef0123456789abcdeg0123456789abcdef"))
	f.Add(uint8(63), bytes.Repeat([]byte{0, 0, 0, 0, 0, 0, 0, 7, 0x40, 0x59, 0, 0, 0, 0, 0, 0}, 80))
	f.Fuzz(func(t *testing.T, k uint8, data []byte) {
		s := NewSample(1 + int(k)%64)
		for ; len(data) >= 16; data = data[16:] {
			v := math.Float64frombits(binary.BigEndian.Uint64(data[8:]))
			if v != v || v == 0 {
				continue
			}
			s.Add(binary.BigEndian.Uint64(data), v)
		}
		var got, want bytes.Buffer
		referenceSampleSnapshot(s, snapshot.NewEncoder(&want))
		s.Snapshot(snapshot.NewEncoder(&got))
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("in-place order of %d items differs from the comparison sort's", len(s.items))
		}
	})
}

// clonePool makes dst a copy of src in dst's own item array.
func clonePool(dst, src *Sample) {
	items := dst.items[:0]
	*dst = *src
	dst.items = append(items, src.items...)
}

// BenchmarkSampleSnapshot encodes one full duration-sized sample (k =
// 32 768, three times that offered) in pool form, as every cut of a
// long run does per worker set: fresh is a pool no Snapshot has trimmed
// and sorted yet, re-sorted one that was sorted at the last cut and has
// taken 2 000 Adds since.
func BenchmarkSampleSnapshot(b *testing.B) {
	const k = 1 << 15
	rng := rand.New(rand.NewPCG(30, 30))
	full := NewSample(k)
	for i := 0; i < 3*k; i++ {
		full.Add(rng.Uint64(), float64(rng.IntN(600)))
	}
	var sink bytes.Buffer
	sink.Grow(20 * k)
	s := &Sample{k: k, items: make([]sampleItem, 0, full.poolLimit())}
	for _, bc := range []struct {
		name  string
		reset func()
	}{
		{"pool/fresh", func() { clonePool(s, full) }},
		{"pool/re-sorted", func() {
			for i := 0; i < 2000; i++ {
				s.Add(rng.Uint64()>>2, float64(rng.IntN(600)))
			}
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			e := snapshot.NewEncoder(&sink)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				bc.reset()
				sink.Reset()
				b.StartTimer()
				s.Snapshot(e)
			}
		})
	}
}

// sampleBytes is a sample's snapshot.
func sampleBytes(s *Sample) []byte {
	var buf bytes.Buffer
	s.Snapshot(snapshot.NewEncoder(&buf))
	return buf.Bytes()
}

// sampleState is a copy of a sample's whole state, taken without the
// trim and sort Snapshot and Values do: what Merge must leave its
// argument as.
type sampleState struct {
	n     int64
	run   bool
	items []sampleItem
	bound sampleItem
	full  bool
}

func stateOf(s *Sample) sampleState {
	return sampleState{s.n, s.run, slices.Clone(s.items), s.bound, s.full}
}

// mergeForm names a merge of o into s by the forms the two are in —
// pool×pool, pool×run, run×pool or run×run — and, when either side is a
// pool, by whether one holds more than k items no trim has cut yet.
func mergeForm(s, o *Sample) string {
	form := func(x *Sample) string {
		if x.run {
			return "run"
		}
		return "pool"
	}
	name := form(s) + "×" + form(o)
	if (!s.run && len(s.items) > s.k) || (!o.run && len(o.items) > o.k) {
		name += " untrimmed"
	}
	return name
}

// restoredSample is s through Snapshot and Restore: the same sample in
// run form.
func restoredSample(t *testing.T, s *Sample) *Sample {
	t.Helper()
	out := NewSample(s.k)
	d := snapshot.NewDecoderBytes(sampleBytes(s))
	out.Restore(d)
	if d.Err() != nil {
		t.Fatalf("restore of a sample's own snapshot: %v", d.Err())
	}
	if !out.run {
		t.Fatal("restored sample is not in run form")
	}
	return out
}

// buildSample absorbs items into one sample through a random mix of
// everything a sample can be asked: Add, a Snapshot→Restore round trip
// (pool form to run form), and Merge — either way round — with a
// sub-sample built the same way from a random share of what is left.
// Each merge is counted in seen under its mergeForm.
func buildSample(t *testing.T, rng *rand.Rand, k int, items []sampleItem, seen map[string]int) *Sample {
	s := NewSample(k)
	for len(items) > 0 {
		switch rng.IntN(4) {
		case 0, 1:
			n := 1 + rng.IntN(min(len(items), 2*k))
			for _, it := range items[:n] {
				s.Add(it.key, it.val)
			}
			items = items[n:]
		case 2:
			s = restoredSample(t, s)
		case 3:
			n := 1 + rng.IntN(len(items))
			sub := buildSample(t, rng, k, items[:n], seen)
			items = items[n:]
			if rng.IntN(2) == 0 {
				seen[mergeForm(s, sub)]++
				before := stateOf(sub)
				s.Merge(sub)
				if !reflect.DeepEqual(stateOf(sub), before) {
					t.Fatal("Merge changed its argument")
				}
			} else {
				seen[mergeForm(sub, s)]++
				sub.Merge(s)
				s = sub
			}
		}
	}
	return s
}

// TestSampleFormsMatchHeapOnly: whatever interleaving of Add,
// Snapshot→Restore and Merge, in whatever order and grouping, absorbed
// a set of items — equal keys under different values and exact
// duplicates among them — the result has the Values, Complete, n and
// Snapshot bytes of the heap arbiter (heapSample) that was only ever
// added to. Every pairing of forms is merged, and with a pool in it,
// with one holding more than k untrimmed items.
func TestSampleFormsMatchHeapOnly(t *testing.T) {
	rng := rand.New(rand.NewPCG(25, 25))
	seen := map[string]int{}
	for round := 0; round < 300; round++ {
		k := 1 + rng.IntN(40)
		if round%10 == 0 {
			k = 100 + rng.IntN(400) // runs long enough for the merge to gallop
		}
		n := rng.IntN(6 * k)
		keys := uint64(1 + rng.IntN(3*k)) // few enough that keys collide
		items := make([]sampleItem, n)
		for i := range items {
			if i > 0 && rng.IntN(8) == 0 {
				items[i] = items[rng.IntN(i)] // an exact duplicate
				continue
			}
			items[i] = sampleItem{key: rng.Uint64N(keys) << 40, val: float64(rng.IntN(5))}
		}
		want := newHeapSample(k)
		for _, it := range items {
			want.Add(it.key, it.val)
		}
		rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
		got := buildSample(t, rng, k, items, seen)
		if got.n != want.n || got.Complete() != want.Complete() {
			t.Fatalf("round %d (k=%d, %d items): n=%d complete=%v, heap-only n=%d complete=%v",
				round, k, n, got.n, got.Complete(), want.n, want.Complete())
		}
		if !reflect.DeepEqual(got.Values(), heapValues(want)) {
			t.Fatalf("round %d (k=%d, %d items): values %v, heap-only %v", round, k, n, got.Values(), heapValues(want))
		}
		if !bytes.Equal(sampleBytes(got), heapBytes(want)) {
			t.Fatalf("round %d (k=%d, %d items): snapshot differs from the heap-only sample's", round, k, n)
		}
	}
	for _, form := range []string{"pool×pool", "pool×run", "run×pool", "run×run",
		"pool×pool untrimmed", "pool×run untrimmed", "run×pool untrimmed"} {
		if seen[form] == 0 {
			t.Errorf("no %s merge was made", form)
		}
	}
}

// TestSampleRestoreRefuses: a stream that is not what Snapshot writes —
// items out of (key, value) order, a kept count that is not min(n, k),
// another capacity — is ErrBadSnapshot and leaves the sample as it was.
func TestSampleRestoreRefuses(t *testing.T) {
	encode := func(k int, n int64, items ...sampleItem) []byte {
		var buf bytes.Buffer
		e := snapshot.NewEncoder(&buf)
		e.Uvarint(uint64(k))
		e.Varint(n)
		e.Uvarint(uint64(len(items)))
		for _, it := range items {
			e.Uvarint(it.key)
			e.F64(it.val)
		}
		return buf.Bytes()
	}
	a, b, c := sampleItem{1, 5}, sampleItem{2, 1}, sampleItem{2, 3}
	for name, tc := range map[string]struct {
		stream []byte
		ok     bool
	}{
		"in order":                   {encode(4, 3, a, b, c), true},
		"exact duplicates":           {encode(4, 3, a, a, b), true},
		"full":                       {encode(4, 9, a, b, c, c), true},
		"empty":                      {encode(4, 0), true},
		"keys out of order":          {encode(4, 3, b, a, c), false},
		"values out of order":        {encode(4, 3, a, c, b), false},
		"fewer kept than population": {encode(4, 4, a, b, c), false},
		"more kept than population":  {encode(4, 2, a, b, c), false},
		"more kept than capacity":    {encode(4, 9, a, a, b, c, c), false},
		"another capacity":           {encode(8, 3, a, b, c), false},
		"cut short":                  {encode(4, 3, a, b, c)[:12], false},
	} {
		s := NewSample(4)
		s.Add(9, 9)
		d := snapshot.NewDecoderBytes(tc.stream)
		s.Restore(d)
		switch {
		case tc.ok && d.Err() != nil:
			t.Errorf("%s: refused: %v", name, d.Err())
		case tc.ok && !bytes.Equal(sampleBytes(s), tc.stream):
			t.Errorf("%s: restored sample re-encodes differently", name)
		case !tc.ok && !errors.Is(d.Err(), snapshot.ErrBadSnapshot):
			t.Errorf("%s: error %v does not wrap ErrBadSnapshot", name, d.Err())
		case !tc.ok && (s.n != 1 || !reflect.DeepEqual(s.Values(), []float64{9})):
			t.Errorf("%s: refused stream changed the sample", name)
		}
	}
}

// heapValues is what Values returned for a heap: its values ascending.
func heapValues(s *heapSample) []float64 {
	out := make([]float64, len(s.items))
	for i, it := range s.items {
		out[i] = it.val
	}
	sort.Float64s(out)
	return out
}

// heapBytes is the Snapshot a heap wrote.
func heapBytes(s *heapSample) []byte {
	var buf bytes.Buffer
	referenceSnapshot(snapshot.NewEncoder(&buf), s.k, s.n, s.items)
	return buf.Bytes()
}

// TestSampleMergeHeapsMatchesOffer: for random k and operand sizes
// whose sum falls under, exactly on and over k — with keys that are
// hashes, keys that collide under differing values, keys below the
// histogram's size and one key for every item, exact duplicates among
// them — a merge of pool × pool, pool × run and run × pool leaves the
// n, Complete, Values and Snapshot bytes the heap arbiter's offer loop
// leaves, leaves its argument alone, and leaves a pool that keeps or
// drops items added afterwards as the arbiter keeps or drops them. Each
// form is merged, too, with a pool holding more than k untrimmed items.
func TestSampleMergeHeapsMatchesOffer(t *testing.T) {
	rng := rand.New(rand.NewPCG(27, 27))
	forms := []struct {
		name       string
		sRun, oRun bool
	}{{"pool×pool", false, false}, {"pool×run", false, true}, {"run×pool", true, false}}
	untrimmed := map[string]int{}
	for round := 0; round < 400; round++ {
		k := 1 + rng.IntN(60)
		if round%8 == 0 {
			k = 200 + rng.IntN(2000) // more items than the histogram has buckets
		}
		keys := uint64(1 + rng.IntN(3*k)) // few enough that keys collide
		key := []func() uint64{
			func() uint64 { return rng.Uint64N(keys) << 40 },
			rng.Uint64,
			func() uint64 { return rng.Uint64N(keys) },
			func() uint64 { return 7 << 50 },
		}[round/6%4]
		draw := func(n int) []sampleItem {
			items := make([]sampleItem, n)
			for i := range items {
				if i > 0 && rng.IntN(8) == 0 {
					items[i] = items[rng.IntN(i)] // an exact duplicate
					continue
				}
				items[i] = sampleItem{key: key(), val: float64(rng.IntN(5))}
			}
			return items
		}
		// Operand sizes: the sum under k, exactly k, just over, far over,
		// and either side alone already past k.
		var na, nb int
		switch round % 6 {
		case 0:
			na = rng.IntN(k/2 + 1)
			nb = rng.IntN(k/2 + 1)
		case 1:
			na = rng.IntN(k + 1)
			nb = k - na
		case 2:
			na = rng.IntN(k + 1)
			nb = k - na + 1 + rng.IntN(3)
		case 3:
			na, nb = k+rng.IntN(3*k), k+rng.IntN(3*k)
		case 4:
			na, nb = 3*k, rng.IntN(4)
		case 5:
			na, nb = rng.IntN(4), 3*k
		}
		itemsA, itemsB, later := draw(na), draw(nb), draw(1+rng.IntN(2*k))
		for _, form := range forms {
			build := func(items []sampleItem, run bool) *Sample {
				s := NewSample(k)
				for _, it := range items {
					s.Add(it.key, it.val)
				}
				if run {
					s = restoredSample(t, s)
				}
				return s
			}
			got, want := build(itemsA, form.sRun), newHeapSample(k)
			for _, it := range itemsA {
				want.Add(it.key, it.val)
			}
			o := build(itemsB, form.oRun)
			if got.run != form.sRun || o.run != form.oRun {
				t.Fatalf("round %d %s: operands are run=%v × run=%v", round, form.name, got.run, o.run)
			}
			if mergeForm(got, o) != form.name {
				untrimmed[form.name]++
			}
			before := stateOf(o)
			got.Merge(o)
			if !reflect.DeepEqual(stateOf(o), before) {
				t.Fatalf("round %d %s (k=%d, %d+%d items): Merge changed its argument", round, form.name, k, na, nb)
			}
			offerLoopMerge(want, o)
			for step := 0; step < 2; step++ {
				// Check a copy: Values and Snapshot trim and sort, and the
				// items added next must meet the pool the merge left.
				c := new(Sample)
				clonePool(c, got)
				if c.n != want.n || c.Complete() != want.Complete() {
					t.Fatalf("round %d %s (k=%d, %d+%d items) step %d: n=%d complete=%v, offer loop n=%d complete=%v",
						round, form.name, k, na, nb, step, c.n, c.Complete(), want.n, want.Complete())
				}
				if !reflect.DeepEqual(c.Values(), heapValues(want)) {
					t.Fatalf("round %d %s (k=%d, %d+%d items) step %d: values differ from the offer loop's", round, form.name, k, na, nb, step)
				}
				if !bytes.Equal(sampleBytes(c), heapBytes(want)) {
					t.Fatalf("round %d %s (k=%d, %d+%d items) step %d: snapshot differs from the offer loop's", round, form.name, k, na, nb, step)
				}
				for _, it := range later {
					got.Add(it.key, it.val)
					want.Add(it.key, it.val)
				}
			}
		}
	}
	for _, form := range forms {
		if untrimmed[form.name] == 0 {
			t.Errorf("no %s merge had a pool of more than k untrimmed items", form.name)
		}
	}
}

// BenchmarkSampleMerge folds one full duration-sized sample (k = 32 768,
// three times that offered) into another: what an engine's merge pays
// per extra worker once the fleet's records outnumber the sample.
// pool×pool is Sample.Merge; offer-loop is the heap arbiter's
// item-by-item merge, offered the same operand.
func BenchmarkSampleMerge(b *testing.B) {
	const k = 1 << 15
	rng := rand.New(rand.NewPCG(28, 28))
	s, hs, o := NewSample(k), newHeapSample(k), NewSample(k)
	for i := 0; i < 3*k; i++ {
		key, v := rng.Uint64(), float64(rng.IntN(600))
		s.Add(key, v)
		hs.Add(key, v)
		o.Add(rng.Uint64(), float64(rng.IntN(600)))
	}
	// The receiver starts each merge as the same full pool or heap; the
	// copy is about 512 KiB, a few percent of either merge.
	b.Run("pool×pool", func(b *testing.B) {
		dst := &Sample{k: k, items: make([]sampleItem, 0, 2*k)}
		for i := 0; i < b.N; i++ {
			clonePool(dst, s)
			dst.Merge(o)
		}
	})
	b.Run("offer-loop", func(b *testing.B) {
		dst := &heapSample{k: k, items: make([]sampleItem, 0, 2*k)}
		for i := 0; i < b.N; i++ {
			dst.n, dst.items = hs.n, append(dst.items[:0], hs.items...)
			offerLoopMerge(dst, o)
		}
	})
}

// BenchmarkSampleAdd is the duration stage's sample per record: 1.6 M
// hashed keys — a worker set's share of a fleet five times the
// benchmark's — through one full duration-sized sample (k = 32 768),
// the pool against the heap arbiter it replaced. B/op is the sample's
// own array: the pool's k + k/8 items against the heap's k.
func BenchmarkSampleAdd(b *testing.B) {
	const k, n = 1 << 15, 1_600_000
	rng := rand.New(rand.NewPCG(31, 31))
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	for _, bc := range []struct {
		name string
		fill func()
	}{
		{"pool", func() {
			s := NewSample(k)
			for i, key := range keys {
				s.Add(key, float64(i%601))
			}
		}},
		{"heap", func() {
			s := newHeapSample(k)
			for i, key := range keys {
				s.Add(key, float64(i%601))
			}
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bc.fill()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/add")
		})
	}
}
