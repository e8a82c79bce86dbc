package stats

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"
)

// expandedCDF is the CDF as it was when it held its sample sorted, one
// value per observation, verbatim: the arbiter of
// TestCDFMatchesExpandedSlice. Never make it call CDF.
type expandedCDF struct{ sorted []float64 }

func (c *expandedCDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	idx := sort.SearchFloat64s(c.sorted, x)
	for idx < len(c.sorted) && c.sorted[idx] == x {
		idx++
	}
	return float64(idx) / float64(len(c.sorted))
}

func (c *expandedCDF) Quantile(q float64) float64 {
	sorted := c.sorted
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

func (c *expandedCDF) Mean() float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	var s float64
	for _, v := range c.sorted {
		s += v
	}
	return s / float64(len(c.sorted))
}

func (c *expandedCDF) Points(n int) (xs, ps []float64) {
	if len(c.sorted) == 0 {
		return nil, nil
	}
	lo, hi := c.sorted[0], c.sorted[len(c.sorted)-1]
	xs = make([]float64, n)
	ps = make([]float64, n)
	for i := 0; i < n; i++ {
		x := lo + (hi-lo)*float64(i)/float64(n-1)
		xs[i] = x
		ps[i] = c.At(x)
	}
	return xs, ps
}

// randomSample draws a slice of one of the shapes a report's CDFs take:
// many records over few whole values (Figure 9's seconds, §4.5's
// handover counts), distinct fractions (Figure 3's connected time), or
// a mix.
func randomSample(rng *rand.Rand) []float64 {
	n := rng.IntN(300)
	if rng.IntN(10) == 0 {
		n = 0
	}
	vs := make([]float64, n)
	distinct := 1 + rng.IntN(20)
	for i := range vs {
		switch rng.IntN(3) {
		case 0:
			vs[i] = float64(rng.IntN(distinct))
		case 1:
			vs[i] = rng.Float64() * 600
		default:
			vs[i] = rng.NormFloat64() * 1e3
		}
	}
	return vs
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameCDF(a, b *CDF) bool { return slices.Equal(a.values, b.values) && slices.Equal(a.cum, b.cum) }

// TestCDFMatchesExpandedSlice: for random samples, every method of a
// CDF NewCDF built returns the very float the sorted-slice CDF returns,
// NewCDFCounts over the same sample's (value, count) pairs builds the
// same CDF, and the CDF survives a JSON round trip.
func TestCDFMatchesExpandedSlice(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 31))
	for iter := 0; iter < 2000; iter++ {
		vs := randomSample(rng)
		got := NewCDF(vs)
		want := &expandedCDF{sorted: slices.Clone(vs)}
		sort.Float64s(want.sorted)
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("sample %v: %s", vs, fmt.Sprintf(format, args...))
		}
		if got.N() != int64(len(vs)) {
			fail("N = %d", got.N())
		}
		if !sameBits(got.Mean(), want.Mean()) {
			fail("Mean %v, want %v", got.Mean(), want.Mean())
		}
		xs := []float64{math.Inf(-1), -1, 0, 0.5, 105, 600, math.Inf(1)}
		for i := 0; i < 20; i++ {
			xs = append(xs, rng.NormFloat64()*600)
		}
		for _, v := range want.sorted {
			xs = append(xs, v, math.Nextafter(v, math.Inf(1)), math.Nextafter(v, math.Inf(-1)))
		}
		for _, x := range xs {
			if g, w := got.At(x), want.At(x); !sameBits(g, w) {
				fail("At(%v) = %v, want %v", x, g, w)
			}
		}
		for _, n := range []int{2, 64, 72} {
			gx, gp := got.Points(n)
			wx, wp := want.Points(n)
			if !slices.Equal(gx, wx) || !slices.Equal(gp, wp) {
				fail("Points(%d) = %v %v, want %v %v", n, gx, gp, wx, wp)
			}
		}
		if len(vs) > 0 {
			qs := []float64{0, 0.005, 0.25, 0.5, 0.7, 0.73, 0.9, 0.995, 1}
			for i := 0; i < 20; i++ {
				qs = append(qs, rng.Float64())
			}
			for _, q := range qs {
				if g, w := got.Quantile(q), want.Quantile(q); !sameBits(g, w) {
					fail("Quantile(%v) = %v, want %v", q, g, w)
				}
			}
		}

		var values []float64
		var counts []int64
		for _, v := range want.sorted {
			if len(values) > 0 && values[len(values)-1] == v {
				counts[len(counts)-1]++
				continue
			}
			values, counts = append(values, v), append(counts, 1)
		}
		if byCounts := NewCDFCounts(values, counts); !sameCDF(byCounts, got) {
			fail("NewCDFCounts built %+v, NewCDF %+v", byCounts, got)
		}

		b, err := json.Marshal(got)
		if err != nil {
			fail("marshal: %v", err)
		}
		var back CDF
		if err := json.Unmarshal(b, &back); err != nil {
			fail("unmarshal %s: %v", b, err)
		}
		if !sameCDF(&back, got) {
			fail("JSON %s came back as %+v", b, back)
		}
	}
}

func TestCDFCountsAndJSONForm(t *testing.T) {
	c := NewCDFCounts([]float64{0, 1, 2, 600}, []int64{3, 0, 1, 4})
	if c.N() != 8 {
		t.Fatalf("N = %d, want 8", c.N())
	}
	if got := c.At(1); got != 3.0/8 {
		t.Fatalf("At(1) = %v: a value counted zero times must add nothing", got)
	}
	if med := c.Quantile(0.5); med != 301 {
		t.Fatalf("median = %v, want halfway between 2 and 600", med)
	}
	b, err := json.Marshal(c)
	if err != nil || string(b) != "[[0,3],[2,1],[600,4]]" {
		t.Fatalf("JSON = %s, %v", b, err)
	}
	for _, bad := range []string{
		"[1,2,3]",         // the sorted-sample form
		"[[1,2],[1,3]]",   // a repeated value
		"[[2,1],[1,1]]",   // values out of order
		"[[1,0]]",         // a zero count
		"[[1,-2]]",        // a negative count
		"[[1,1.5]]",       // a fractional count
		"[[1,2],[3]]",     // a pair cut short
		`[[1,2],["x",1]]`, // not a number
	} {
		var c CDF
		if err := json.Unmarshal([]byte(bad), &c); err == nil {
			t.Errorf("UnmarshalJSON(%s) accepted it: %+v", bad, c)
		}
	}
	for name, f := range map[string]func(){
		"lengths":   func() { NewCDFCounts([]float64{1, 2}, []int64{1}) },
		"repeated":  func() { NewCDFCounts([]float64{1, 1}, []int64{1, 1}) },
		"negative":  func() { NewCDFCounts([]float64{1}, []int64{-1}) },
		"unordered": func() { NewCDFCounts([]float64{2, 1}, []int64{1, 1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewCDFCounts %s: expected panic", name)
				}
			}()
			f()
		}()
	}
}
