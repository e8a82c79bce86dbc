package stats

import (
	"math"
	"math/rand/v2"
	"testing"
)

func TestLogHistQuantileCeilRank(t *testing.T) {
	// Two observations: the median is the 1st smallest (ceil(0.5·2)=1),
	// not the 2nd as the old floor-based target computed.
	var h LogHist
	h.Add(10)
	h.Add(1000)
	med := h.Quantile(0.5)
	if med > 20 {
		t.Fatalf("median of {10, 1000} = %v; ceil rank must select the smaller", med)
	}
	// One observation: every quantile is that observation's bin.
	var h1 LogHist
	h1.Add(100)
	lo, hi := h1.Quantile(0), h1.Quantile(1)
	if lo != hi {
		t.Fatalf("single observation: q0 %v != q1 %v", lo, hi)
	}
	if lo < 90 || lo > 112 {
		t.Fatalf("single observation quantile = %v, want ≈100", lo)
	}
}

func TestLogHistQuantileOneDoesNotOvershoot(t *testing.T) {
	var h LogHist
	for i := 0; i < 100; i++ {
		h.Add(50)
	}
	q := h.Quantile(1.0)
	if q < 45 || q > 56 {
		t.Fatalf("q=1.0 of constant-50 data = %v; must stay in the occupied bin", q)
	}
	// Out-of-range q clamps instead of panicking or overshooting.
	if got := h.Quantile(1.5); got != q {
		t.Fatalf("q=1.5 (clamped) = %v, want %v", got, q)
	}
	if got := h.Quantile(-0.5); got > q {
		t.Fatalf("q=-0.5 (clamped) = %v above maximum %v", got, q)
	}
}

func TestLogHistEdges(t *testing.T) {
	var empty LogHist
	if got := empty.Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %v", got)
	}
	// Sub-unit values land in the zero bin.
	var h LogHist
	h.Add(0.5)
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("sub-unit quantile = %v", got)
	}
	// Huge values clamp to the last bin, never to ±Inf.
	var h2 LogHist
	h2.Add(1e12)
	if got := h2.Quantile(1); math.IsInf(got, 0) || got <= 0 {
		t.Fatalf("clamped quantile = %v", got)
	}
}

func TestLogHistMergeEquivalence(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 0))
	var whole, a, b LogHist
	for i := 0; i < 5000; i++ {
		x := math.Exp(rng.Float64() * 10)
		whole.Add(x)
		if i%2 == 0 {
			a.Add(x)
		} else {
			b.Add(x)
		}
	}
	a.Merge(&b)
	if a.total != whole.total {
		t.Fatalf("merged total %d vs %d", a.total, whole.total)
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.73, 0.9, 1} {
		if a.Quantile(q) != whole.Quantile(q) {
			t.Fatalf("q%v: merged %v vs whole %v", q, a.Quantile(q), whole.Quantile(q))
		}
	}
}

func TestSampleCompleteIsExact(t *testing.T) {
	s := NewSample(100)
	for i := 0; i < 50; i++ {
		s.Add(uint64(i*2654435761), float64(i))
	}
	if !s.Complete() {
		t.Fatal("50 of 100 must be complete")
	}
	vals := s.Values()
	if len(vals) != 50 || vals[0] != 0 || vals[49] != 49 {
		t.Fatalf("complete sample wrong: %v..%v n=%d", vals[0], vals[len(vals)-1], len(vals))
	}
}

func TestSampleMergeOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 9))
	type item struct {
		key uint64
		val float64
	}
	items := make([]item, 10000)
	for i := range items {
		items[i] = item{key: rng.Uint64(), val: rng.Float64() * 1000}
	}

	// One shard vs eight shards merged in two different orders.
	one := NewSample(256)
	for _, it := range items {
		one.Add(it.key, it.val)
	}
	shards := make([]*Sample, 8)
	for i := range shards {
		shards[i] = NewSample(256)
	}
	for i, it := range items {
		shards[i%8].Add(it.key, it.val)
	}
	fwd := NewSample(256)
	for i := 0; i < 8; i++ {
		fwd.Merge(shards[i])
	}
	rev := NewSample(256)
	for i := 7; i >= 0; i-- {
		rev.Merge(shards[i])
	}

	a, b, c := one.Values(), fwd.Values(), rev.Values()
	if len(a) != 256 || len(b) != 256 || len(c) != 256 {
		t.Fatalf("sizes: %d %d %d", len(a), len(b), len(c))
	}
	for i := range a {
		if a[i] != b[i] || a[i] != c[i] {
			t.Fatalf("item %d differs: %v %v %v", i, a[i], b[i], c[i])
		}
	}
	if one.n != fwd.n || fwd.n != rev.n {
		t.Fatalf("counts differ: %d %d %d", one.n, fwd.n, rev.n)
	}
}

func TestHistogramMerge(t *testing.T) {
	a := NewHistogram(0, 1, 10)
	b := NewHistogram(0, 1, 10)
	a.Add(0.5)
	a.Add(-1)
	b.Add(0.5)
	b.Add(9.5)
	b.Add(100)
	a.Merge(b)
	if a.Counts[0] != 2 || a.Counts[9] != 1 || a.Under != 1 || a.Over != 1 {
		t.Fatalf("merged: %v under %d over %d", a.Counts, a.Under, a.Over)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("layout mismatch must panic")
		}
	}()
	a.Merge(NewHistogram(0, 2, 10))
}

// TestLogHistTableMatchesLog: the bin Add files an observation under is
// the one the logarithm gives — int(log x / log LogHistBase), clamped to
// the last bin, evaluated here as Add evaluated it before the table —
// for every integer the table covers, for the floats either side of each
// (which take the logarithm), and for values above the table.
func TestLogHistTableMatchesLog(t *testing.T) {
	want := func(x float64) int {
		bin := int(math.Log(x) / math.Log(LogHistBase))
		if bin >= LogHistBins {
			bin = LogHistBins - 1
		}
		return bin
	}
	check := func(x float64) {
		t.Helper()
		var h LogHist
		h.Add(x)
		bin := want(x)
		if h.counts[bin] != 1 || h.total != 1 || h.zero != 0 {
			t.Fatalf("Add(%v) did not count in bin %d, the logarithm's", x, bin)
		}
	}
	for i := 1; i < logTableLen; i++ {
		x := float64(i)
		check(x)
		check(math.Nextafter(x, math.Inf(1)))
		if i > 1 {
			check(math.Nextafter(x, 0))
		}
	}
	for _, x := range []float64{logTableLen, math.Nextafter(logTableLen, 0), logTableLen + 0.5, 4097, 86400, 1e5, 1e9, math.MaxFloat64} {
		check(x)
	}
	rng := rand.New(rand.NewPCG(41, 41))
	for i := 0; i < 100000; i++ {
		check(1 + rng.Float64()*2*logTableLen)
	}
}

// BenchmarkLogHistAdd is the duration stage's histogram per record:
// whole seconds up to 600, what the engine adds and the table serves,
// and fractional seconds, which take the logarithm.
func BenchmarkLogHistAdd(b *testing.B) {
	rng := rand.New(rand.NewPCG(42, 42))
	whole, frac := make([]float64, 4096), make([]float64, 4096)
	for i := range whole {
		whole[i] = float64(rng.IntN(601))
		frac[i] = rng.Float64() * 600
	}
	for _, bc := range []struct {
		name string
		xs   []float64
	}{{"whole-seconds", whole}, {"fractional", frac}} {
		b.Run(bc.name, func(b *testing.B) {
			var h LogHist
			for i := 0; i < b.N; i++ {
				h.Add(bc.xs[i&4095])
			}
		})
	}
}
