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
