package analysis

import (
	"cellcars/internal/cdr"
	"cellcars/internal/simtime"
)

// feed builds one accumulator over a car table of its own and feeds it a
// record slice: the stage harness of this package's tests. Unlike an
// accumSet it applies no ghost or period rule; it feeds exactly the
// records given. Study days are counted in period, which only the stages
// that read days need to be given.
func feed[A Accumulator](records []cdr.Record, period simtime.Period, build func(cars *carTable) A) A {
	cars := new(carTable)
	acc := build(cars)
	var b batch
	for len(records) > 0 {
		b.reset()
		for _, r := range records[:min(len(records), accumBatchSize)] {
			b.push(r, cars.intern(r.Car), period.DayIndex(r.Start))
		}
		acc.Add(&b)
		records = records[len(b.recs):]
	}
	return acc
}

// runAccum is feed, finalized into a scratch report.
func runAccum[A Accumulator](records []cdr.Record, period simtime.Period, build func(cars *carTable) A) *Report {
	return finalized(feed(records, period, build))
}

// finalized returns acc's results in a scratch report.
func finalized(acc Accumulator) *Report {
	rep := &Report{}
	if err := acc.Finalize(rep); err != nil {
		// No accumulator in this package returns a finalize error; a
		// non-nil error here is a programming bug.
		panic(err)
	}
	return rep
}
