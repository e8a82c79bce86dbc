package analysis

import (
	"fmt"

	"cellcars/internal/cdr"
)

// BusyTime is Figure 7: the distribution over cars of the fraction of
// connected time spent in busy cells (UPRB above the busy threshold in
// the overlapped 15-minute bins).
type BusyTime struct {
	// FracByCar maps each car to its busy-time fraction.
	FracByCar map[cdr.CarID]float64
	// Deciles are the 0,10,…,100% quantiles of the fractions (Fig 7a).
	Deciles [11]float64
	// OverHalf is the proportion of cars with > 50% busy time
	// (paper: ~2.4%).
	OverHalf float64
	// AllBusy is the proportion of cars with ≥ 99% busy time
	// (paper: ~1%).
	AllBusy float64
}

// Histogram7a buckets the busy-time fractions into the Figure 7a bars:
// proportion of cars per 10-percentage-point bucket of busy time.
func (bt BusyTime) Histogram7a() [10]float64 {
	var out [10]float64
	if len(bt.FracByCar) == 0 {
		return out
	}
	for _, f := range bt.FracByCar {
		b := int(f * 10)
		if b >= 10 {
			b = 9
		}
		out[b]++
	}
	n := float64(len(bt.FracByCar))
	for i := range out {
		out[i] /= n
	}
	return out
}

// Segment is a Table 2 row bucket: how much of the car population is
// rare vs common, split by whether their connected time concentrates
// in busy hours, non-busy hours, or both.
type Segment struct {
	RareDays int // the "rare" threshold in days (10 or 30 in the paper)
	// Fractions of the whole car population.
	RareBusy, RareNonBusy, RareBoth       float64
	CommonBusy, CommonNonBusy, CommonBoth float64
}

// RareTotal returns the total rare fraction.
func (s Segment) RareTotal() float64 { return s.RareBusy + s.RareNonBusy + s.RareBoth }

// CommonTotal returns the total common fraction.
func (s Segment) CommonTotal() float64 { return s.CommonBusy + s.CommonNonBusy + s.CommonBoth }

// SegmentationThresholds are the paper's §4.3 classification bounds: a
// car is a busy-hour car when ≥ 65% of its connected time is on busy
// cells, a non-busy-hour car when ≤ 35%, otherwise balanced ("both").
const (
	BusyCarMinFrac    = 0.65
	NonBusyCarMaxFrac = 0.35
)

// FormatTable2 renders segmentation rows in the paper's Table 2 layout.
func FormatTable2(segments []Segment) string {
	s := fmt.Sprintf("%-22s  %6s  %8s  %6s  %6s\n", "Segment", "Busy", "Non-Busy", "Both", "Total")
	for _, seg := range segments {
		s += fmt.Sprintf("Rare (<= %2d days)       %5.1f%%  %7.1f%%  %5.1f%%  %5.1f%%\n",
			seg.RareDays, seg.RareBusy*100, seg.RareNonBusy*100, seg.RareBoth*100, seg.RareTotal()*100)
		s += fmt.Sprintf("Common (%2d+ days)       %5.1f%%  %7.1f%%  %5.1f%%  %5.1f%%\n",
			seg.RareDays, seg.CommonBusy*100, seg.CommonNonBusy*100, seg.CommonBoth*100, seg.CommonTotal()*100)
	}
	return s
}
