package analysis

import (
	"math/rand/v2"
	"sort"
	"time"

	"cellcars/internal/cdr"
	"cellcars/internal/radio"
	"cellcars/internal/simtime"
	"cellcars/internal/stats"
)

// CarSpan is one car's connection interval within a cell-day timeline.
type CarSpan struct {
	Car   cdr.CarID
	Start time.Time
	End   time.Time
}

// CellDayResult is Figure 8: one cell over 24 hours — every car's
// connection spans plus the 15-minute concurrency profile.
type CellDayResult struct {
	Cell radio.CellKey
	Day  int
	// Spans are the connection intervals, clamped to the day, ordered
	// by start.
	Spans []CarSpan
	// UniqueCars is the number of distinct cars (paper example: 377).
	UniqueCars int
	// Concurrency[b] is the number of distinct cars whose connections
	// straddle 15-minute bin b of the day (paper example peak: 16).
	Concurrency simtime.DayVector
	// PeakBin and PeakCars locate the busiest 15-minute bin.
	PeakBin  int
	PeakCars int
}

// CellDay computes Figure 8 for the given cell and study day.
func CellDay(records []cdr.Record, ctx Context, cell radio.CellKey, day int) CellDayResult {
	res := CellDayResult{Cell: cell, Day: day}
	dayStart := ctx.Period.DayStart(day)
	dayEnd := dayStart.Add(24 * time.Hour)
	cars := make(map[cdr.CarID]struct{})
	perBin := make([]map[cdr.CarID]struct{}, simtime.BinsPerDay)

	forEachRecord(records, func(r cdr.Record) {
		if r.Cell != cell {
			return
		}
		s, e := r.Start, r.End()
		if !e.After(dayStart) || !s.Before(dayEnd) {
			return
		}
		if s.Before(dayStart) {
			s = dayStart
		}
		if e.After(dayEnd) {
			e = dayEnd
		}
		res.Spans = append(res.Spans, CarSpan{Car: r.Car, Start: s, End: e})
		cars[r.Car] = struct{}{}
		first, last := ctx.Period.BinRange(s, e.Sub(s))
		for b := first; b < last; b++ {
			bod := b - day*simtime.BinsPerDay
			if bod < 0 || bod >= simtime.BinsPerDay {
				continue
			}
			if perBin[bod] == nil {
				perBin[bod] = make(map[cdr.CarID]struct{})
			}
			perBin[bod][r.Car] = struct{}{}
		}
	})

	res.UniqueCars = len(cars)
	for b := range perBin {
		n := len(perBin[b])
		res.Concurrency[b] = float64(n)
		if n > res.PeakCars {
			res.PeakCars, res.PeakBin = n, b
		}
	}
	sort.Slice(res.Spans, func(i, j int) bool {
		if !res.Spans[i].Start.Equal(res.Spans[j].Start) {
			return res.Spans[i].Start.Before(res.Spans[j].Start)
		}
		return res.Spans[i].Car < res.Spans[j].Car
	})
	return res
}

// CellDurations is Figure 9: the distribution of per-cell connection
// durations, reported on the truncated-at-600 s data (the figure's
// x-axis) alongside the full-duration mean the paper quotes.
type CellDurations struct {
	// Truncated is the CDF of durations capped at 600 s, in whole
	// seconds.
	Truncated *stats.CDF
	// Median and P73 are quantiles of the truncated distribution
	// (paper: 105 s and 600 s).
	Median, P73 float64
	// FullMean and TruncMean are the means of the raw and truncated
	// durations (paper: 625 s and 238 s).
	FullMean, TruncMean float64
	// NotWhole counts the records whose duration was negative or not a
	// whole number of seconds: Truncated holds each at its floor, a
	// negative one at 0 s, while the means keep them exact. No codec
	// carries one; the record-slice API can.
	NotWhole int64
}

// CellDurationsOf computes Figure 9 from ghost-free records, exactly.
func CellDurationsOf(records []cdr.Record) CellDurations {
	return runAccum(records, simtime.Period{}, func(*carTable) *durationsAcc { return newDurationsAcc() }).Durations
}

// CellWeekResult is Figure 10: one cell over one week — concurrent
// cars per 15-minute bin (impulses) against the cell's average PRB
// utilization (line).
type CellWeekResult struct {
	Cell radio.CellKey
	// Week is the index of the Monday-aligned week within the period.
	Week int
	// Concurrency[b] is distinct cars straddling week bin b.
	Concurrency simtime.WeekVector
	// Utilization[b] is the cell's UPRB in week bin b.
	Utilization simtime.WeekVector
}

// CellWeek computes Figure 10 for the given cell and week (0-based
// Monday-aligned week within the period). It panics without a load
// source or when the week is out of range.
func CellWeek(records []cdr.Record, ctx Context, cell radio.CellKey, week int) CellWeekResult {
	if ctx.Load == nil {
		panic("analysis: CellWeek requires a load source")
	}
	if week < 0 || (week+1)*7 > ctx.Period.Days() {
		panic("analysis: week outside period")
	}
	res := CellWeekResult{Cell: cell, Week: week}
	firstBin := week * 7 * simtime.BinsPerDay
	perBin := make([]map[cdr.CarID]struct{}, simtime.BinsPerWeek)

	forEachRecord(records, func(r cdr.Record) {
		if r.Cell != cell {
			return
		}
		first, last := ctx.Period.BinRange(r.Start, r.Duration)
		for b := first; b < last; b++ {
			wb := b - firstBin
			if wb < 0 || wb >= simtime.BinsPerWeek {
				continue
			}
			if perBin[wb] == nil {
				perBin[wb] = make(map[cdr.CarID]struct{})
			}
			perBin[wb][r.Car] = struct{}{}
		}
	})
	for b := range perBin {
		res.Concurrency[b] = float64(len(perBin[b]))
		res.Utilization[b] = ctx.Load.Utilization(cell, firstBin+b)
	}
	return res
}

// BusyClusters is Figure 11: k-means over the busy-cell concurrency
// vectors.
type BusyClusters struct {
	// Cells are the clustered cells, aligned with Assignments.
	Cells []radio.CellKey
	// Vectors[i] is cell i's 96-bin mean-concurrency-by-time-of-day.
	Vectors [][]float64
	// Assignments, Sizes and Centroids come from k-means (k=2), with
	// clusters reordered so cluster 0 is the smaller-peak one.
	Assignments []int
	Sizes       []int
	Centroids   [][]float64
}

// PeakRatio returns the ratio of the larger cluster-centroid peak to
// the smaller (paper: cluster 2 runs ~5× cluster 1).
func (b BusyClusters) PeakRatio() float64 {
	if len(b.Centroids) != 2 {
		return 0
	}
	p0, p1 := maxOf(b.Centroids[0]), maxOf(b.Centroids[1])
	if p0 == 0 {
		return 0
	}
	return p1 / p0
}

func maxOf(xs []float64) float64 {
	var m float64
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// ClusterBusyCells computes Figure 11: for every cell in busyCells it
// builds the 96-bin vector of mean concurrent cars per time-of-day bin
// (averaged over study days), then runs k-means with k=2. The rng
// seeds k-means++. Cells with no traffic still participate (as zero
// vectors), as they would in the paper's pipeline. Returns an empty
// result when fewer than two cells are given.
func ClusterBusyCells(records []cdr.Record, ctx Context, busyCells []radio.CellKey, rng *rand.Rand) BusyClusters {
	if len(busyCells) < 2 {
		return BusyClusters{}
	}
	return feed(records, ctx.Period, func(*carTable) *clustersAcc { return newClustersAcc(ctx, busyCells, 1) }).finish(rng)
}
