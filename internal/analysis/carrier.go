package analysis

import (
	"fmt"

	"cellcars/internal/radio"
)

// CarrierUsage is Table 3: per carrier, the fraction of cars that ever
// connected to it and the fraction of total connected time spent on it.
type CarrierUsage struct {
	// CarsFrac[c] is the fraction of all cars ever seen on carrier c.
	CarsFrac map[radio.CarrierID]float64
	// TimeFrac[c] is the fraction of total connected time on carrier c.
	TimeFrac map[radio.CarrierID]float64
	// TotalCars is the distinct car count (the CarsFrac denominator).
	TotalCars int
}

// FormatTable3 renders carrier usage in the paper's Table 3 layout.
func FormatTable3(u CarrierUsage) string {
	s := fmt.Sprintf("%-8s", "Carrier")
	for c := radio.C1; c <= radio.C5; c++ {
		s += fmt.Sprintf("  %8s", c)
	}
	s += fmt.Sprintf("\n%-8s", "Cars(%)")
	for c := radio.C1; c <= radio.C5; c++ {
		s += fmt.Sprintf("  %7.3f%%", u.CarsFrac[c]*100)
	}
	s += fmt.Sprintf("\n%-8s", "Time(%)")
	for c := radio.C1; c <= radio.C5; c++ {
		s += fmt.Sprintf("  %7.3f%%", u.TimeFrac[c]*100)
	}
	return s + "\n"
}
