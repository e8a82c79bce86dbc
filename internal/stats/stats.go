// Package stats provides the statistics substrate for the measurement
// pipeline: streaming moments, empirical CDFs and quantiles, fixed-width
// histograms, simple linear regression (the trend lines of Figure 2),
// and k-means clustering (Figure 11).
//
// Everything here is deterministic; the only stochastic routine,
// k-means++ seeding, takes an explicit random source.
package stats

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// Moments accumulates count, mean and variance online using Welford's
// algorithm, so a single pass over arbitrarily many records needs O(1)
// memory. The zero value is an empty accumulator ready to use.
type Moments struct {
	n    int64
	mean float64
	m2   float64
}

// Add accumulates one observation.
func (m *Moments) Add(x float64) {
	m.n++
	d := x - m.mean
	m.mean += d / float64(m.n)
	m.m2 += d * (x - m.mean)
}

// Mean returns the running mean, or 0 with no observations.
func (m *Moments) Mean() float64 { return m.mean }

// SampleVar returns the sample (Bessel-corrected) variance.
func (m *Moments) SampleVar() float64 {
	if m.n < 2 {
		return 0
	}
	return m.m2 / float64(m.n-1)
}

// SampleStdDev returns the sample standard deviation, which is what the
// paper's Table 1 reports for day-of-week variability.
func (m *Moments) SampleStdDev() float64 { return math.Sqrt(m.SampleVar()) }

// Merge combines another accumulator into m (parallel Welford merge).
func (m *Moments) Merge(o *Moments) {
	if o.n == 0 {
		return
	}
	if m.n == 0 {
		*m = *o
		return
	}
	n := m.n + o.n
	d := o.mean - m.mean
	m.m2 += o.m2 + d*d*float64(m.n)*float64(o.n)/float64(n)
	m.mean += d * float64(o.n) / float64(n)
	m.n = n
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of the data using linear
// interpolation between order statistics (type-7, the R/NumPy default).
// The slice is sorted in place. It panics on an empty slice or a
// quantile outside [0, 1]: both indicate a caller bug, not a data
// condition.
func Quantile(sorted []float64, q float64) float64 {
	if !sort.Float64sAreSorted(sorted) {
		sort.Float64s(sorted)
	}
	return interpolate(int64(len(sorted)), q, func(i int64) float64 { return sorted[i] })
}

// interpolate is the type-7 q-quantile of n ascending values, nth(i)
// being the one of rank i.
func interpolate(n int64, q float64, nth func(int64) float64) float64 {
	if n == 0 {
		panic("stats: quantile of empty slice")
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: quantile %v outside [0,1]", q))
	}
	pos := q * float64(n-1)
	lo := int64(math.Floor(pos))
	hi := int64(math.Ceil(pos))
	if lo == hi {
		return nth(lo)
	}
	frac := pos - float64(lo)
	return nth(lo)*(1-frac) + nth(hi)*frac
}

// Deciles returns the 11 values at quantiles 0, 0.1, …, 1.0, the
// summary the paper plots in Figure 7.
func Deciles(values []float64) [11]float64 {
	var out [11]float64
	if len(values) == 0 {
		return out
	}
	sort.Float64s(values)
	for i := 0; i <= 10; i++ {
		out[i] = Quantile(values, float64(i)/10)
	}
	return out
}

// Mean returns the arithmetic mean of values, or 0 for an empty slice.
func Mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var s float64
	for _, v := range values {
		s += v
	}
	return s / float64(len(values))
}

// CDF is an empirical cumulative distribution: the distinct values of
// a sample in ascending order, each with how often it occurs. A
// distribution of many records over few values — Figure 9's whole
// seconds — costs its distinct values, never one value per record.
type CDF struct {
	values []float64
	cum    []int64 // cum[i] counts the sample's values at or below values[i]
}

// NewCDF builds an empirical CDF from the sample. The input slice is
// copied, then sorted.
func NewCDF(values []float64) *CDF {
	s := make([]float64, len(values))
	copy(s, values)
	sort.Float64s(s)
	c := &CDF{}
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			c.values = append(c.values, v)
			c.cum = append(c.cum, 0)
		}
		c.cum[len(c.cum)-1] = int64(i + 1)
	}
	return c
}

// NewCDFCounts builds an empirical CDF from distinct values in
// ascending order, values[i] occurring counts[i] times; a value counted
// zero times is left out. It panics when the slices differ in length, a
// value is not above the one before it or a count is negative: each is
// a caller bug.
func NewCDFCounts(values []float64, counts []int64) *CDF {
	c, err := cdfOf(values, counts)
	if err != nil {
		panic("stats: " + err.Error())
	}
	return c
}

func cdfOf(values []float64, counts []int64) (*CDF, error) {
	if len(values) != len(counts) {
		return nil, fmt.Errorf("%d CDF values but %d counts", len(values), len(counts))
	}
	c := &CDF{values: make([]float64, 0, len(values)), cum: make([]int64, 0, len(values))}
	var n int64
	for i, v := range values {
		switch {
		case i > 0 && !(v > values[i-1]):
			return nil, fmt.Errorf("CDF value %v does not ascend from %v", v, values[i-1])
		case counts[i] < 0:
			return nil, fmt.Errorf("CDF value %v counted %d times", v, counts[i])
		case counts[i] == 0:
			continue
		}
		n += counts[i]
		c.values = append(c.values, v)
		c.cum = append(c.cum, n)
	}
	return c, nil
}

// N returns the sample size.
func (c *CDF) N() int64 {
	if len(c.cum) == 0 {
		return 0
	}
	return c.cum[len(c.cum)-1]
}

// MarshalJSON renders the CDF as its [value, count] pairs in ascending
// value order, so reports carrying CDFs survive a JSON round trip
// instead of collapsing to an empty object (the fields are unexported
// by design).
func (c *CDF) MarshalJSON() ([]byte, error) {
	pairs := make([][2]float64, len(c.values))
	prev := int64(0)
	for i, v := range c.values {
		pairs[i] = [2]float64{v, float64(c.cum[i] - prev)}
		prev = c.cum[i]
	}
	return json.Marshal(pairs)
}

// UnmarshalJSON restores a CDF marshaled by MarshalJSON, refusing
// pairs whose values do not ascend or whose counts are not positive
// whole numbers.
func (c *CDF) UnmarshalJSON(data []byte) error {
	var pairs [][2]float64
	if err := json.Unmarshal(data, &pairs); err != nil {
		return err
	}
	values, counts := make([]float64, len(pairs)), make([]int64, len(pairs))
	for i, p := range pairs {
		if p[1] < 1 || p[1] != math.Trunc(p[1]) {
			return fmt.Errorf("stats: CDF value %v counted %v times", p[0], p[1])
		}
		values[i], counts[i] = p[0], int64(p[1])
	}
	got, err := cdfOf(values, counts)
	if err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	*c = *got
	return nil
}

// nth returns the sample's value of rank i, 0 ≤ i < N.
func (c *CDF) nth(i int64) float64 {
	return c.values[sort.Search(len(c.cum), func(j int) bool { return c.cum[j] > i })]
}

// At returns P(X ≤ x), the fraction of the sample at or below x.
func (c *CDF) At(x float64) float64 {
	idx := sort.SearchFloat64s(c.values, x)
	if idx < len(c.values) && c.values[idx] == x {
		idx++
	}
	if idx == 0 {
		return 0
	}
	return float64(c.cum[idx-1]) / float64(c.N())
}

// Quantile returns the q-quantile of the sample, as Quantile does over
// the sample sorted.
func (c *CDF) Quantile(q float64) float64 { return interpolate(c.N(), q, c.nth) }

// Mean returns the sample mean, summed in ascending order as Mean sums
// the sample sorted.
func (c *CDF) Mean() float64 {
	if len(c.values) == 0 {
		return 0
	}
	var s float64
	prev := int64(0)
	for i, v := range c.values {
		for ; prev < c.cum[i]; prev++ {
			s += v
		}
	}
	return s / float64(c.N())
}

// Points samples the CDF at n evenly spaced x positions across the data
// range, returning (x, P(X≤x)) pairs for plotting. n must be at least 2.
func (c *CDF) Points(n int) (xs, ps []float64) {
	if n < 2 {
		panic("stats: CDF.Points needs n >= 2")
	}
	if len(c.values) == 0 {
		return nil, nil
	}
	lo, hi := c.values[0], c.values[len(c.values)-1]
	xs = make([]float64, n)
	ps = make([]float64, n)
	for i := 0; i < n; i++ {
		x := lo + (hi-lo)*float64(i)/float64(n-1)
		xs[i] = x
		ps[i] = c.At(x)
	}
	return xs, ps
}

// Histogram counts observations into fixed-width bins covering
// [Lo, Lo + Width·len(Counts)). Out-of-range observations are counted
// in Under/Over.
type Histogram struct {
	Lo     float64
	Width  float64
	Counts []int64
	Under  int64
	Over   int64
}

// NewHistogram creates a histogram with nbins bins of the given width
// starting at lo. It panics when nbins or width is not positive.
func NewHistogram(lo, width float64, nbins int) *Histogram {
	if nbins <= 0 || width <= 0 {
		panic("stats: histogram needs positive bins and width")
	}
	return &Histogram{Lo: lo, Width: width, Counts: make([]int64, nbins)}
}

// Add counts one observation.
func (h *Histogram) Add(x float64) {
	if x < h.Lo {
		h.Under++
		return
	}
	bin := int((x - h.Lo) / h.Width)
	if bin >= len(h.Counts) {
		h.Over++
		return
	}
	h.Counts[bin]++
}

// Merge adds another histogram's counts into h. Both histograms must
// share the same layout (origin, width, bin count); merging mismatched
// layouts is a caller bug and panics.
func (h *Histogram) Merge(o *Histogram) {
	if h.Lo != o.Lo || h.Width != o.Width || len(h.Counts) != len(o.Counts) {
		panic(fmt.Sprintf("stats: merging histograms with different layouts: [%v,%v)×%d vs [%v,%v)×%d",
			h.Lo, h.Width, len(h.Counts), o.Lo, o.Width, len(o.Counts)))
	}
	for i, c := range o.Counts {
		h.Counts[i] += c
	}
	h.Under += o.Under
	h.Over += o.Over
}

// Total returns the number of in-range observations.
func (h *Histogram) Total() int64 {
	var t int64
	for _, c := range h.Counts {
		t += c
	}
	return t
}

// LinReg holds an ordinary-least-squares fit y = Intercept + Slope·x,
// with the coefficient of determination R². Figure 2's trend lines are
// this fit over day index vs daily percentage.
type LinReg struct {
	Slope     float64
	Intercept float64
	R2        float64
	N         int
}

// Fit computes the least-squares line through the points (xs[i], ys[i]).
// It panics when the slices differ in length; it returns a degenerate
// flat fit when there are fewer than two points or x has no variance.
func Fit(xs, ys []float64) LinReg {
	if len(xs) != len(ys) {
		panic(fmt.Sprintf("stats: Fit length mismatch %d vs %d", len(xs), len(ys)))
	}
	n := len(xs)
	if n == 0 {
		return LinReg{}
	}
	mx, my := Mean(xs), Mean(ys)
	var sxx, sxy, syy float64
	for i := 0; i < n; i++ {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return LinReg{Intercept: my, N: n}
	}
	slope := sxy / sxx
	r2 := 0.0
	if syy > 0 {
		r2 = (sxy * sxy) / (sxx * syy)
	}
	return LinReg{Slope: slope, Intercept: my - slope*mx, R2: r2, N: n}
}
