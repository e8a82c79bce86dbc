package stats

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps
}

func TestMomentsBasic(t *testing.T) {
	var m Moments
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		m.Add(x)
	}
	if !almostEqual(m.Mean(), 5, 1e-12) {
		t.Fatalf("Mean = %v", m.Mean())
	}
	if !almostEqual(m.SampleVar(), 32.0/7, 1e-12) {
		t.Fatalf("SampleVar = %v", m.SampleVar())
	}
	if !almostEqual(m.SampleStdDev(), math.Sqrt(32.0/7), 1e-12) {
		t.Fatalf("SampleStdDev = %v", m.SampleStdDev())
	}
}

func TestMomentsEmptyAndSingle(t *testing.T) {
	var m Moments
	if m.Mean() != 0 || m.SampleVar() != 0 {
		t.Fatal("zero-value Moments should report zeros")
	}
	m.Add(42)
	if m.Mean() != 42 || m.SampleVar() != 0 {
		t.Fatalf("single obs: mean=%v var=%v", m.Mean(), m.SampleVar())
	}
}

func TestMomentsMergeMatchesSequential(t *testing.T) {
	f := func(a, b []float64) bool {
		var whole, left, right Moments
		for _, x := range a {
			sane := math.Mod(x, 1e6)
			whole.Add(sane)
			left.Add(sane)
		}
		for _, x := range b {
			sane := math.Mod(x, 1e6)
			whole.Add(sane)
			right.Add(sane)
		}
		left.Merge(&right)
		if whole.n != left.n {
			return false
		}
		if whole.n == 0 {
			return true
		}
		scale := math.Max(1, math.Abs(whole.Mean()))
		return almostEqual(whole.Mean(), left.Mean(), 1e-9*scale) &&
			almostEqual(whole.SampleVar(), left.SampleVar(), 1e-6*math.Max(1, whole.SampleVar()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantile(t *testing.T) {
	data := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 10}, {0.5, 5.5}, {0.25, 3.25}, {0.73, 7.57},
	}
	for _, c := range cases {
		if got := Quantile(data, c.q); !almostEqual(got, c.want, 1e-9) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := Quantile([]float64{7}, 0.9); got != 7 {
		t.Fatalf("single-element quantile = %v", got)
	}
}

func TestQuantilePanics(t *testing.T) {
	for name, f := range map[string]func(){
		"empty": func() { Quantile(nil, 0.5) },
		"q>1":   func() { Quantile([]float64{1}, 1.5) },
		"q<0":   func() { Quantile([]float64{1}, -0.1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestQuantileBoundsProperty(t *testing.T) {
	f := func(raw []float64, qRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]float64, 0, len(raw))
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			vals = append(vals, x)
		}
		if len(vals) == 0 {
			return true
		}
		q := float64(qRaw) / 255
		got := Quantile(vals, q)
		sort.Float64s(vals)
		return got >= vals[0] && got <= vals[len(vals)-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDeciles(t *testing.T) {
	vals := make([]float64, 101)
	for i := range vals {
		vals[i] = float64(i)
	}
	d := Deciles(vals)
	for i := 0; i <= 10; i++ {
		if !almostEqual(d[i], float64(i*10), 1e-9) {
			t.Fatalf("decile %d = %v, want %d", i, d[i], i*10)
		}
	}
	var zero [11]float64
	if Deciles(nil) != zero {
		t.Fatal("Deciles(nil) should be all zeros")
	}
}

func TestCDF(t *testing.T) {
	c := NewCDF([]float64{1, 2, 2, 3, 4})
	cases := []struct{ x, want float64 }{
		{0, 0}, {1, 0.2}, {2, 0.6}, {2.5, 0.6}, {4, 1}, {10, 1},
	}
	for _, cse := range cases {
		if got := c.At(cse.x); !almostEqual(got, cse.want, 1e-12) {
			t.Errorf("At(%v) = %v, want %v", cse.x, got, cse.want)
		}
	}
	if got := c.Quantile(0.5); got != 2 {
		t.Fatalf("median = %v", got)
	}
	if got := c.Mean(); !almostEqual(got, 2.4, 1e-12) {
		t.Fatalf("mean = %v", got)
	}
	if c.N() != 5 {
		t.Fatalf("N = %d", c.N())
	}
}

func TestCDFDoesNotMutateInput(t *testing.T) {
	in := []float64{3, 1, 2}
	NewCDF(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatal("NewCDF mutated its input")
	}
}

func TestCDFPoints(t *testing.T) {
	c := NewCDF([]float64{0, 10})
	xs, ps := c.Points(11)
	if len(xs) != 11 || len(ps) != 11 {
		t.Fatalf("points lengths %d/%d", len(xs), len(ps))
	}
	if xs[0] != 0 || xs[10] != 10 {
		t.Fatalf("x range [%v,%v]", xs[0], xs[10])
	}
	if ps[10] != 1 {
		t.Fatalf("final p = %v", ps[10])
	}
	if !sort.Float64sAreSorted(ps) {
		t.Fatal("CDF points must be nondecreasing")
	}
}

func TestCDFMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		vals := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) {
				vals = append(vals, x)
			}
		}
		c := NewCDF(vals)
		if a > b {
			a, b = b, a
		}
		return c.At(a) <= c.At(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 9) // bins [0,90)
	for d := 0.0; d <= 95; d += 5 {
		h.Add(d)
	}
	// 0..85 in-range (18 values), 90 and 95 over.
	if h.Total() != 18 {
		t.Fatalf("Total = %d", h.Total())
	}
	if h.Over != 2 || h.Under != 0 {
		t.Fatalf("Over/Under = %d/%d", h.Over, h.Under)
	}
	h.Add(-1)
	if h.Under != 1 {
		t.Fatalf("Under = %d", h.Under)
	}
	if h.Counts[0] != 2 { // 0 and 5
		t.Fatalf("bin0 = %d", h.Counts[0])
	}
}

func TestHistogramPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewHistogram(0, 0, 10)
}

func TestFitPerfectLine(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4}
	ys := []float64{1, 3, 5, 7, 9} // y = 1 + 2x
	l := Fit(xs, ys)
	if !almostEqual(l.Slope, 2, 1e-12) || !almostEqual(l.Intercept, 1, 1e-12) {
		t.Fatalf("fit = %+v", l)
	}
	if !almostEqual(l.R2, 1, 1e-12) {
		t.Fatalf("R2 = %v", l.R2)
	}
}

func TestFitNoise(t *testing.T) {
	// Nearly flat noisy data should give near-zero slope and tiny R²,
	// like Figure 2's trend lines (R² ≈ 0.03 and 0.001).
	rng := rand.New(rand.NewPCG(1, 2))
	xs := make([]float64, 90)
	ys := make([]float64, 90)
	for i := range xs {
		xs[i] = float64(i)
		ys[i] = 0.76 + 0.0001*float64(i) + 0.02*(rng.Float64()-0.5)
	}
	l := Fit(xs, ys)
	if l.Slope < 0 || l.Slope > 0.001 {
		t.Fatalf("slope = %v", l.Slope)
	}
	if l.R2 < 0 || l.R2 > 1 {
		t.Fatalf("R2 = %v out of range", l.R2)
	}
}

func TestFitDegenerate(t *testing.T) {
	l := Fit(nil, nil)
	if l.Slope != 0 || l.Intercept != 0 || l.N != 0 {
		t.Fatalf("empty fit = %+v", l)
	}
	l = Fit([]float64{2, 2, 2}, []float64{1, 5, 9})
	if l.Slope != 0 || !almostEqual(l.Intercept, 5, 1e-12) {
		t.Fatalf("no-variance fit = %+v", l)
	}
}

func TestFitPanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Fit([]float64{1}, []float64{1, 2})
}

func TestMeanEmpty(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) != 0")
	}
}
