package analysis

import (
	"cellcars/internal/cdr"
	"cellcars/internal/simtime"
)

// ReferenceMatrices returns the three Figure 4 reference encodings as
// 24×7 matrices with 1 in significant hours and 0 elsewhere (in local
// time): weekday commute peaks, network busy hours, and weekend time.
func ReferenceMatrices() (commute, networkPeak, weekend simtime.WeekMatrix) {
	for day := 0; day < 7; day++ {
		for hour := 0; hour < 24; hour++ {
			if day < 5 {
				if (hour >= 7 && hour < 9) || (hour >= 16 && hour < 19) {
					commute.Set(hour, day, 1)
				}
			}
			// Network load peaks from afternoon into the evening every
			// day (the paper's example car "connects during network busy
			// hours (14-24h)").
			if hour >= 14 {
				networkPeak.Set(hour, day, 1)
			}
			if day >= 5 {
				weekend.Set(hour, day, 1)
			}
		}
	}
	return commute, networkPeak, weekend
}

// UsageMatrix builds a car's Figure 5 matrix: for each hour of the
// local week, the number of that car's aggregate sessions (gap ≤ 30 s)
// touching the hour — the usage stage's matrix over one car's records.
// Records must belong to a single car and be time-ordered; ghosts should
// be removed first.
func UsageMatrix(records []cdr.Record, ctx Context) simtime.WeekMatrix {
	return runAccum(records, ctx.Period, func(cars *carTable) *usageAcc { return newUsageAcc(ctx.TZOffsetSeconds, cars) }).FleetUsage
}

// RecordsOfCar extracts one car's records from a stream, preserving
// order.
func RecordsOfCar(records []cdr.Record, car cdr.CarID) []cdr.Record {
	var out []cdr.Record
	for _, r := range records {
		if r.Car == car {
			out = append(out, r)
		}
	}
	return out
}
