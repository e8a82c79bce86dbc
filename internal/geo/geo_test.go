package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPointDist(t *testing.T) {
	a := Point{0, 0}
	b := Point{3, 4}
	if got := a.Dist(b); got != 5 {
		t.Fatalf("Dist = %v, want 5", got)
	}
	if got := a.Dist(a); got != 0 {
		t.Fatalf("self distance = %v", got)
	}
}

func TestPointDistSymmetric(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		if anyNaNInf(ax, ay, bx, by) {
			return true
		}
		a, b := Point{ax, ay}, Point{bx, by}
		return a.Dist(b) == b.Dist(a) && a.Dist(b) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func anyNaNInf(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
	}
	return false
}

func TestLerp(t *testing.T) {
	a, b := Point{0, 0}, Point{10, 20}
	if got := a.Lerp(b, 0); got != a {
		t.Fatalf("Lerp 0 = %v", got)
	}
	if got := a.Lerp(b, 1); got != b {
		t.Fatalf("Lerp 1 = %v", got)
	}
	if got := a.Lerp(b, 0.5); got != (Point{5, 10}) {
		t.Fatalf("Lerp 0.5 = %v", got)
	}
}

func TestHeading(t *testing.T) {
	o := Point{0, 0}
	cases := []struct {
		q    Point
		want float64
	}{
		{Point{1, 0}, 0},
		{Point{0, 1}, math.Pi / 2},
		{Point{-1, 0}, math.Pi},
		{Point{0, -1}, -math.Pi / 2},
	}
	for _, c := range cases {
		if got := o.Heading(c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Heading(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestAdd(t *testing.T) {
	if got := (Point{1, 2}).Add(3, -1); got != (Point{4, 1}) {
		t.Fatalf("Add = %v", got)
	}
}

func TestDensityString(t *testing.T) {
	if Urban.String() != "urban" || Suburban.String() != "suburban" || Rural.String() != "rural" {
		t.Fatal("density names wrong")
	}
	if Density(9).String() != "density(9)" {
		t.Fatalf("unknown density name = %q", Density(9).String())
	}
}

func TestDensitySpacingOrdered(t *testing.T) {
	if !(Urban.SiteSpacingKm() < Suburban.SiteSpacingKm() && Suburban.SiteSpacingKm() < Rural.SiteSpacingKm()) {
		t.Fatal("site spacing must grow with sparsity")
	}
	if Density(7).SiteSpacingKm() != Suburban.SiteSpacingKm() {
		t.Fatal("unknown density should fall back to suburban spacing")
	}
}

func TestRect(t *testing.T) {
	r := Rect{Min: Point{0, 0}, Max: Point{10, 20}}
	if r.Width() != 10 || r.Height() != 20 {
		t.Fatalf("rect geometry: w=%v h=%v", r.Width(), r.Height())
	}
	if r.Center() != (Point{5, 10}) {
		t.Fatalf("center = %v", r.Center())
	}
	if !r.Contains(Point{0, 0}) || r.Contains(Point{10, 5}) || r.Contains(Point{-1, 5}) {
		t.Fatal("contains semantics wrong (min inclusive, max exclusive)")
	}
	if got := r.Clamp(Point{-5, 25}); got != (Point{0, 20}) {
		t.Fatalf("clamp = %v", got)
	}
	if got := r.Clamp(Point{5, 5}); got != (Point{5, 5}) {
		t.Fatalf("interior clamp moved point: %v", got)
	}
}

func TestDefaultWorldStructure(t *testing.T) {
	w := DefaultWorld(100)
	if len(w.Regions) != 3 {
		t.Fatalf("regions = %d", len(w.Regions))
	}
	c := w.Bounds.Center()
	if got := w.DensityAt(c); got != Urban {
		t.Fatalf("center density = %v, want urban", got)
	}
	if got := w.DensityAt(Point{c.X + 15, c.Y}); got != Suburban {
		t.Fatalf("belt density = %v, want suburban", got)
	}
	if got := w.DensityAt(Point{1, 1}); got != Rural {
		t.Fatalf("corner density = %v, want rural", got)
	}
	// Outside the bounding box entirely: rural fallback.
	if got := w.DensityAt(Point{-50, -50}); got != Rural {
		t.Fatalf("outside density = %v, want rural", got)
	}
}

func TestDefaultWorldPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	DefaultWorld(0)
}
