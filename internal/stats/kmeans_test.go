package stats

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func rng() *rand.Rand { return rand.New(rand.NewPCG(7, 11)) }

func TestKMeansTwoObviousClusters(t *testing.T) {
	var points [][]float64
	// 40 points near (0,0), 10 points near (100,100): mirrors Figure 11's
	// 4:1 size ratio between clusters.
	r := rng()
	for i := 0; i < 40; i++ {
		points = append(points, []float64{r.Float64(), r.Float64()})
	}
	for i := 0; i < 10; i++ {
		points = append(points, []float64{100 + r.Float64(), 100 + r.Float64()})
	}
	res := KMeans(points, 2, 100, r)
	if len(res.Sizes) != 2 {
		t.Fatalf("sizes = %v", res.Sizes)
	}
	small, large := res.Sizes[0], res.Sizes[1]
	if small > large {
		small, large = large, small
	}
	if small != 10 || large != 40 {
		t.Fatalf("cluster sizes = %v, want {10,40}", res.Sizes)
	}
	// All points in a cluster must share the assignment of their peers.
	first := res.Assignments[0]
	for i := 1; i < 40; i++ {
		if res.Assignments[i] != first {
			t.Fatalf("point %d assigned %d, want %d", i, res.Assignments[i], first)
		}
	}
}

func TestKMeansK1(t *testing.T) {
	points := [][]float64{{1}, {3}, {5}}
	res := KMeans(points, 1, 10, rng())
	if res.Sizes[0] != 3 {
		t.Fatalf("sizes = %v", res.Sizes)
	}
	if got := res.Centroids[0][0]; got != 3 {
		t.Fatalf("centroid = %v, want 3", got)
	}
}

func TestKMeansKEqualsN(t *testing.T) {
	points := [][]float64{{0}, {10}, {20}}
	res := KMeans(points, 3, 50, rng())
	for _, s := range res.Sizes {
		if s != 1 {
			t.Fatalf("sizes = %v, want all 1", res.Sizes)
		}
	}
	if res.Inertia != 0 {
		t.Fatalf("inertia = %v, want 0", res.Inertia)
	}
}

func TestKMeansIdenticalPoints(t *testing.T) {
	points := [][]float64{{5, 5}, {5, 5}, {5, 5}, {5, 5}}
	res := KMeans(points, 2, 20, rng())
	if res.Inertia != 0 {
		t.Fatalf("inertia = %v", res.Inertia)
	}
	total := res.Sizes[0] + res.Sizes[1]
	if total != 4 {
		t.Fatalf("sizes sum to %d", total)
	}
}

func TestKMeansPanics(t *testing.T) {
	cases := map[string]func(){
		"no points": func() { KMeans(nil, 1, 1, rng()) },
		"k zero":    func() { KMeans([][]float64{{1}}, 0, 1, rng()) },
		"k > n":     func() { KMeans([][]float64{{1}}, 2, 1, rng()) },
		"dim mix":   func() { KMeans([][]float64{{1}, {1, 2}}, 1, 1, rng()) },
	}
	for name, f := range cases {
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

// TestKMeansAssignmentOptimality verifies the core invariant: after
// convergence every point is assigned to its nearest centroid.
func TestKMeansAssignmentOptimality(t *testing.T) {
	f := func(seed uint64, nRaw, kRaw uint8) bool {
		n := int(nRaw%50) + 2
		k := int(kRaw%4) + 1
		if k > n {
			k = n
		}
		r := rand.New(rand.NewPCG(seed, 99))
		points := make([][]float64, n)
		for i := range points {
			points[i] = []float64{r.Float64() * 100, r.Float64() * 100}
		}
		res := KMeans(points, k, 200, r)
		for i, p := range points {
			for c := range res.Centroids {
				if sqDist(p, res.Centroids[c]) < sqDist(p, res.Centroids[res.Assignments[i]])-1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestKMeansSizesSumToN(t *testing.T) {
	f := func(seed uint64, nRaw, kRaw uint8) bool {
		n := int(nRaw%80) + 1
		k := int(kRaw%5) + 1
		if k > n {
			k = n
		}
		r := rand.New(rand.NewPCG(seed, 3))
		points := make([][]float64, n)
		for i := range points {
			points[i] = []float64{r.Float64()}
		}
		res := KMeans(points, k, 100, r)
		sum := 0
		for _, s := range res.Sizes {
			sum += s
		}
		return sum == n && len(res.Assignments) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestKMeansDeterministicForFixedSeed(t *testing.T) {
	mk := func() KMeansResult {
		r := rand.New(rand.NewPCG(42, 42))
		points := make([][]float64, 30)
		pr := rand.New(rand.NewPCG(1, 1))
		for i := range points {
			points[i] = []float64{pr.Float64() * 10, pr.Float64() * 10}
		}
		return KMeans(points, 3, 100, r)
	}
	a, b := mk(), mk()
	for i := range a.Assignments {
		if a.Assignments[i] != b.Assignments[i] {
			t.Fatalf("nondeterministic assignment at %d", i)
		}
	}
	if a.Inertia != b.Inertia {
		t.Fatalf("nondeterministic inertia %v vs %v", a.Inertia, b.Inertia)
	}
}
