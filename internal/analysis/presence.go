package analysis

import (
	"fmt"

	"cellcars/internal/cdr"
	"cellcars/internal/simtime"
	"cellcars/internal/stats"
)

// DailyPresence is Figure 2: the fraction of the car population on the
// network and of the touched cell population with cars, per study day,
// with least-squares trend lines.
type DailyPresence struct {
	// TotalCars and TotalCells are the distinct cars and cells seen in
	// the whole data set (the denominators).
	TotalCars, TotalCells int
	// CarsFrac[d] is the fraction of TotalCars seen on day d; CellsFrac
	// likewise for cells.
	CarsFrac, CellsFrac []float64
	// CarsTrend and CellsTrend are the Figure 2 trend lines over day
	// index.
	CarsTrend, CellsTrend stats.LinReg
}

// DailyPresenceOf computes Figure 2 from a record stream. A car or
// cell counts as present on the day a connection starts.
func DailyPresenceOf(records []cdr.Record, period simtime.Period) DailyPresence {
	return finalized(over(records, Context{Period: period}).p).Presence
}

// WeekdayRow is one row of Table 1: mean and sample standard deviation
// of the daily fractions grouped by day of week.
type WeekdayRow struct {
	Label               string
	CellsMean, CellsStd float64
	CarsMean, CarsStd   float64
}

// Table1 groups a DailyPresence by weekday, reproducing Table 1:
// "% cells with cars" and "% cars on network" per day of week plus an
// overall row. Rows are ordered Monday..Sunday, then Overall.
func Table1(p DailyPresence, period simtime.Period) []WeekdayRow {
	labels := []string{"Monday", "Tuesday", "Wednesday", "Thursday", "Friday", "Saturday", "Sunday"}
	var cells, cars [8]stats.Moments
	for d := 0; d < period.Days() && d < len(p.CarsFrac); d++ {
		w := (int(period.Weekday(d)) + 6) % 7
		cells[w].Add(p.CellsFrac[d])
		cars[w].Add(p.CarsFrac[d])
		cells[7].Add(p.CellsFrac[d])
		cars[7].Add(p.CarsFrac[d])
	}
	rows := make([]WeekdayRow, 0, 8)
	for w := 0; w < 7; w++ {
		rows = append(rows, WeekdayRow{
			Label:     labels[w],
			CellsMean: cells[w].Mean(), CellsStd: cells[w].SampleStdDev(),
			CarsMean: cars[w].Mean(), CarsStd: cars[w].SampleStdDev(),
		})
	}
	rows = append(rows, WeekdayRow{
		Label:     "Overall",
		CellsMean: cells[7].Mean(), CellsStd: cells[7].SampleStdDev(),
		CarsMean: cars[7].Mean(), CarsStd: cars[7].SampleStdDev(),
	})
	return rows
}

// FormatTable1 renders Table 1 rows in the paper's layout.
func FormatTable1(rows []WeekdayRow) string {
	s := fmt.Sprintf("%-10s  %%cells-mean  %%cells-std  %%cars-mean  %%cars-std\n", "Day")
	for _, r := range rows {
		s += fmt.Sprintf("%-10s  %10.1f%%  %9.1f%%  %9.1f%%  %8.1f%%\n",
			r.Label, r.CellsMean*100, r.CellsStd*100, r.CarsMean*100, r.CarsStd*100)
	}
	return s
}

// DaysOnNetwork returns, per car, the number of distinct study days
// with at least one connection — the quantity of Figure 6.
func DaysOnNetwork(records []cdr.Record, period simtime.Period) map[cdr.CarID]int {
	return daysStage{over(records, Context{Period: period})}.perCar()
}

// DaysHistogram bins DaysOnNetwork counts into a Figure 6 histogram
// with one bin per possible day count (1..Days).
func DaysHistogram(records []cdr.Record, period simtime.Period) *stats.Histogram {
	return finalized(daysStage{over(records, Context{Period: period})}).DaysHist
}

// ConnectedTime is Figure 3: the distribution over cars of total time
// on the network as a fraction of the study period, with and without
// the 600-second per-connection truncation.
type ConnectedTime struct {
	// Full and Truncated are the per-car fraction CDFs.
	Full, Truncated *stats.CDF
	// FullMean/TruncMean are the population means (paper: ~8% / ~4%).
	FullMean, TruncMean float64
	// FullP995/TruncP995 are the 99.5th percentiles (paper: 27% / 15%).
	FullP995, TruncP995 float64
}

// ConnectedTimeOf computes Figure 3. Records should be ghost-free; the
// function derives the truncated variant itself.
func ConnectedTimeOf(records []cdr.Record, period simtime.Period) ConnectedTime {
	return runAccum(records, period, func(cars *carTable) *connectedAcc { return newConnectedAcc(period, cars) }).Connected
}
