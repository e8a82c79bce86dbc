// Busy-cell clustering: the Figure 10/11 workflow. Find the radios
// whose average weekly PRB utilization exceeds 70%, cluster their
// car-concurrency profiles with k-means, and inspect one cell-week in
// detail — the view a capacity planner needs before approving a large
// FOTA campaign.
package main

import (
	"fmt"
	"log"
	"time"

	"cellcars"
)

func main() {
	cfg := cellcars.DefaultSceneConfig(1500)
	cfg.Seed = 11
	cfg.Period = cellcars.NewPeriod(time.Date(2017, 1, 2, 0, 0, 0, 0, time.UTC), 21)
	scene := cellcars.NewScene(cfg)

	records, _ := scene.GenerateAll()
	ctx := cellcars.AnalysisContext(scene)

	// The Figure 11 population: cells averaging >= 70% utilization over
	// the week. On the production network these would come from the
	// operator's performance counters.
	busy := scene.Load.VeryBusyCells()
	fmt.Printf("very busy radios (avg weekly UPRB >= %.0f%%): %d of %d cells\n\n",
		scene.Load.VeryBusyAvg()*100, len(busy), scene.Net.NumCells())
	if len(busy) < 2 {
		log.Fatal("population too small to cluster; increase the fleet or world size")
	}

	report, err := cellcars.Analyze(records, ctx, cellcars.AnalyzeOptions{BusyCells: busy})
	if err != nil {
		log.Fatalf("analyze: %v", err)
	}

	cl := report.Clusters
	fmt.Printf("k-means (k=2) over %d busy radios:\n", len(cl.Cells))
	fmt.Printf("  cluster 1: %3d cells, centroid peak %.1f concurrent cars\n",
		cl.Sizes[0], peak(cl.Centroids[0]))
	fmt.Printf("  cluster 2: %3d cells, centroid peak %.1f concurrent cars (%.1fx cluster 1)\n\n",
		cl.Sizes[1], peak(cl.Centroids[1]), cl.PeakRatio())

	// Drill into the hottest cell of the hot cluster, Figure 10 style.
	hot := hottestCell(cl)
	cw := cellcars.CellWeek(records, ctx, hot, 0)
	var maxCars float64
	var maxBin int
	for b, v := range cw.Concurrency {
		if v > maxCars {
			maxCars, maxBin = v, b
		}
	}
	day := maxBin / 96
	hhmm := time.Duration(maxBin%96) * 15 * time.Minute
	fmt.Printf("hottest busy radio %v, week 1:\n", hot)
	fmt.Printf("  peak concurrency: %.0f cars on %s at %02d:%02d (UPRB %.0f%%)\n",
		maxCars, []string{"Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun"}[day],
		int(hhmm.Hours()), int(hhmm.Minutes())%60, cw.Utilization[maxBin]*100)
	fmt.Println("\nPlanner's takeaway: any large download scheduled into the hot")
	fmt.Println("cluster's evening window shares the cell with dozens of cars (§4.4).")
}

func peak(xs []float64) float64 {
	var m float64
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// hottestCell returns the cell with the largest individual peak in the
// hot cluster (index 1 after the analysis orders clusters by peak).
func hottestCell(cl cellcars.BusyClusters) cellcars.CellKey {
	best := cl.Cells[0]
	bestPeak := -1.0
	for i, cell := range cl.Cells {
		if cl.Assignments[i] != 1 {
			continue
		}
		if p := peak(cl.Vectors[i]); p > bestPeak {
			bestPeak, best = p, cell
		}
	}
	return best
}
