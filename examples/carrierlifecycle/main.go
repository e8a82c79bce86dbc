// Carrier lifecycle audit: the Table 3 / §4.6 workflow. Break the
// fleet's network usage down by carrier, then answer the question the
// paper's legacy discussion (and the San Francisco Muni 2G shutdown
// incident) raises: which cars lose service when the operator retires
// a carrier?
package main

import (
	"fmt"
	"log"
	"time"

	"cellcars"
)

func main() {
	cfg := cellcars.DefaultSceneConfig(3000)
	cfg.Seed = 23
	cfg.Period = cellcars.NewPeriod(time.Date(2017, 1, 2, 0, 0, 0, 0, time.UTC), 14)
	scene := cellcars.NewScene(cfg)

	records, _ := scene.GenerateAll()
	report, err := cellcars.Analyze(records, cellcars.AnalysisContext(scene), cellcars.AnalyzeOptions{})
	if err != nil {
		log.Fatalf("analyze: %v", err)
	}

	fmt.Println("Table 3 — carrier use across the fleet:")
	fmt.Println(cellcars.FormatTable3(report))

	// Cars observed *only* on the 3G carrier C2 are the ones stranded
	// by a 3G sunset: connected-car hardware outlives radio
	// generations (§4.6).
	onlyC2 := carsOnlyOn(records, 2)
	fmt.Printf("3G-sunset exposure: %d of %d observed cars (%.2f%%) used only C2\n",
		len(onlyC2), report.Carriers.TotalCars,
		100*float64(len(onlyC2))/float64(report.Carriers.TotalCars))
	fmt.Println("   (the paper's modem-capability story: car fleets need legacy",
		"\n    carriers long after phones have moved on)")

	// Conversely: how much headroom does the new high-band carrier C5
	// offer this fleet today? Essentially none — almost no modem
	// supports it.
	c5 := report.Carriers.CarsFrac[cellcars.CarrierID(5)]
	fmt.Printf("\nC5 adoption: %.4f%% of cars ever connected to the new carrier\n", c5*100)
}

// carsOnlyOn returns the cars all of whose connections used the given
// carrier id.
func carsOnlyOn(records []cellcars.Record, carrier uint8) map[cellcars.CarID]bool {
	sawOther := map[cellcars.CarID]bool{}
	sawIt := map[cellcars.CarID]bool{}
	for _, r := range records {
		if uint8(r.Cell.Carrier()) == carrier {
			sawIt[r.Car] = true
		} else {
			sawOther[r.Car] = true
		}
	}
	out := map[cellcars.CarID]bool{}
	for car := range sawIt {
		if !sawOther[car] {
			out[car] = true
		}
	}
	return out
}
