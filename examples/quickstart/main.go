// Quickstart: generate a small synthetic connected-car population,
// run the full measurement pipeline, and print the headline numbers —
// the fastest way to see the cellcars API end to end.
package main

import (
	"fmt"
	"log"

	"cellcars"
)

func main() {
	// A scene bundles geography, radio network, PRB load model and car
	// fleet. 1000 cars over the default 90-day window is enough to see
	// every population statistic; crank it up for sharper numbers.
	cfg := cellcars.DefaultSceneConfig(1000)
	cfg.Seed = 42
	scene := cellcars.NewScene(cfg)

	records, stats := scene.GenerateAll()
	fmt.Printf("generated %d radio connections from %d cars over %d days\n",
		stats.Records, len(scene.Cars), cfg.Period.Days())
	fmt.Printf("injected faults: %d one-hour ghosts, %d stuck teardowns\n\n",
		stats.Ghosts, stats.Stuck)

	// Analyze applies the paper's preprocessing (§3) and every §4
	// analysis in one call.
	report, err := cellcars.Analyze(records, cellcars.AnalysisContext(scene), cellcars.AnalyzeOptions{
		BusyCells: scene.Load.VeryBusyCells(),
	})
	if err != nil {
		log.Fatalf("analyze: %v", err)
	}

	fmt.Println("Table 1 — daily presence by weekday:")
	fmt.Println(cellcars.FormatTable1(report))

	fmt.Printf("Figure 3 — time on network: mean %.1f%% of the study period "+
		"(%.1f%% after 600 s truncation)\n\n",
		report.Connected.FullMean*100, report.Connected.TruncMean*100)

	fmt.Println("Table 2 — car segmentation (rare/common × busy/non-busy):")
	fmt.Println(cellcars.FormatTable2(report))

	fmt.Printf("§4.5 — handovers per mobility session: median %.0f, p70 %.0f, p90 %.0f "+
		"(%.0f%% across base stations)\n\n",
		report.Handovers.Median, report.Handovers.P70, report.Handovers.P90,
		report.Handovers.InterBSShare()*100)

	fmt.Println("Table 3 — carrier use:")
	fmt.Println(cellcars.FormatTable3(report))
}
