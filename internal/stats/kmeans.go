package stats

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// KMeansResult is the outcome of Lloyd's algorithm: per-point cluster
// assignments, the final centroids, per-cluster sizes, the total
// within-cluster sum of squared distances, and the number of iterations
// performed before convergence.
type KMeansResult struct {
	Assignments []int
	Centroids   [][]float64
	Sizes       []int
	Inertia     float64
	Iterations  int
}

// KMeans clusters points (all of equal dimension) into k clusters using
// k-means++ seeding followed by Lloyd iterations, stopping after
// maxIter iterations or when no assignment changes. The random source
// drives only the seeding, so results are reproducible for a fixed
// source. It panics on invalid inputs (no points, mismatched dimension,
// k outside [1, len(points)]) — all caller bugs.
//
// The paper's Figure 11 runs "the classic k-means algorithm" with k=2
// over 96-element concurrency vectors of busy cells.
func KMeans(points [][]float64, k, maxIter int, rng *rand.Rand) KMeansResult {
	if len(points) == 0 {
		panic("stats: KMeans with no points")
	}
	if k < 1 || k > len(points) {
		panic(fmt.Sprintf("stats: KMeans k=%d outside [1,%d]", k, len(points)))
	}
	dim := len(points[0])
	for i, p := range points {
		if len(p) != dim {
			panic(fmt.Sprintf("stats: KMeans point %d has dim %d, want %d", i, len(p), dim))
		}
	}
	if maxIter < 1 {
		maxIter = 1
	}

	centroids := seedPlusPlus(points, k, rng)
	assign := make([]int, len(points))
	for i := range assign {
		assign[i] = -1
	}
	sizes := make([]int, k)

	var iter int
	for iter = 1; iter <= maxIter; iter++ {
		changed := false
		for i, p := range points {
			best, bestD := 0, math.Inf(1)
			for c := range centroids {
				if d := sqDist(p, centroids[c]); d < bestD {
					best, bestD = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		if !changed {
			break
		}
		// Recompute centroids.
		for c := range centroids {
			for j := range centroids[c] {
				centroids[c][j] = 0
			}
			sizes[c] = 0
		}
		for i, p := range points {
			c := assign[i]
			sizes[c]++
			for j, v := range p {
				centroids[c][j] += v
			}
		}
		for c := range centroids {
			if sizes[c] == 0 {
				// Re-seed an empty cluster at the point farthest from its
				// centroid, a standard fix that keeps k clusters alive.
				centroids[c] = append([]float64(nil), farthestPoint(points, centroids, assign)...)
				continue
			}
			inv := 1 / float64(sizes[c])
			for j := range centroids[c] {
				centroids[c][j] *= inv
			}
		}
	}

	// Final sizes and inertia from the last assignment.
	for c := range sizes {
		sizes[c] = 0
	}
	var inertia float64
	for i, p := range points {
		sizes[assign[i]]++
		inertia += sqDist(p, centroids[assign[i]])
	}
	return KMeansResult{
		Assignments: assign,
		Centroids:   centroids,
		Sizes:       sizes,
		Inertia:     inertia,
		Iterations:  iter,
	}
}

// seedPlusPlus picks k initial centroids with the k-means++ rule:
// first uniformly, then each subsequent proportional to squared
// distance from the nearest chosen centroid.
func seedPlusPlus(points [][]float64, k int, rng *rand.Rand) [][]float64 {
	centroids := make([][]float64, 0, k)
	first := points[rng.IntN(len(points))]
	centroids = append(centroids, append([]float64(nil), first...))

	d2 := make([]float64, len(points))
	for len(centroids) < k {
		var total float64
		last := centroids[len(centroids)-1]
		for i, p := range points {
			d := sqDist(p, last)
			if len(centroids) == 1 || d < d2[i] {
				d2[i] = d
			}
			total += d2[i]
		}
		var idx int
		if total == 0 {
			// All remaining points coincide with a centroid; pick any.
			idx = rng.IntN(len(points))
		} else {
			target := rng.Float64() * total
			var cum float64
			for i, d := range d2 {
				cum += d
				if cum >= target {
					idx = i
					break
				}
			}
		}
		centroids = append(centroids, append([]float64(nil), points[idx]...))
	}
	return centroids
}

// farthestPoint returns the point with the largest distance to its
// assigned centroid.
func farthestPoint(points [][]float64, centroids [][]float64, assign []int) []float64 {
	bestI, bestD := 0, -1.0
	for i, p := range points {
		d := sqDist(p, centroids[assign[i]])
		if d > bestD {
			bestI, bestD = i, d
		}
	}
	return points[bestI]
}

func sqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}
