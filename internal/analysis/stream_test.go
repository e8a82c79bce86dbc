package analysis

import (
	"reflect"
	"testing"
	"time"

	"cellcars/internal/cdr"
	radioPkg "cellcars/internal/radio"
	"cellcars/internal/simtime"
)

func TestStreamingMatchesBatchOnBasics(t *testing.T) {
	period := simtime.NewPeriod(t0, 14)
	var records []cdr.Record
	// A small deterministic workload: 20 cars, varied days/durations.
	for car := cdr.CarID(1); car <= 20; car++ {
		for d := 0; d < int(car); d++ {
			records = append(records,
				rec(car, cell(radioPkg.BSID(car%7)), time.Duration(d)*24*time.Hour+time.Duration(car)*time.Hour,
					time.Duration(50+10*int(car))*time.Second))
		}
	}
	// Plus a ghost that must be dropped.
	records = append(records, rec(1, cell(1), time.Hour, time.Hour))

	s := NewStreamingWithOptions(Context{Period: period}, RunOptions{})
	if err := s.AddAll(cdr.NewSliceReader(records)); err != nil {
		t.Fatal(err)
	}
	rep := s.Finalize()
	if rep.GhostsDropped != 1 {
		t.Fatalf("ghosts dropped = %d", rep.GhostsDropped)
	}

	// The pipeline's out-of-period policy: ghost-free records starting
	// outside the study period are excluded from every analysis and
	// counted, on the push path and the engine's alike.
	var outside int64
	for _, r := range records[:len(records)-1] {
		if period.DayIndex(r.Start) < 0 {
			outside++
		}
	}
	if rep.OutOfPeriod != outside || outside == 0 {
		t.Fatalf("out-of-period = %d, want %d (and the workload must exercise the policy)", rep.OutOfPeriod, outside)
	}
	batch, err := NewEngine(Context{Period: period}, EngineOptions{Workers: 2}).Run(records)
	if err != nil {
		t.Fatal(err)
	}
	if batch.OutOfPeriod != rep.OutOfPeriod || int64(batch.RawRecords-batch.CleanRecords) != rep.GhostsDropped {
		t.Fatalf("engine dropped %d ghosts and %d out of period", batch.RawRecords-batch.CleanRecords, batch.OutOfPeriod)
	}
	if !reflect.DeepEqual(rep.Presence, batch.Presence) {
		t.Fatalf("presence %+v vs %+v", rep.Presence, batch.Presence)
	}
	if !reflect.DeepEqual(rep.Connected, batch.Connected) {
		t.Fatalf("connected time %+v vs %+v", rep.Connected, batch.Connected)
	}
	if !reflect.DeepEqual(rep.DaysCount, batch.DaysHist.Counts) {
		t.Fatalf("days histogram %v vs %v", rep.DaysCount, batch.DaysHist.Counts)
	}
	var totalCars int64
	for _, c := range rep.DaysCount {
		totalCars += c
	}
	if len(rep.DaysCount) != period.Days() || int(totalCars) != batch.Presence.TotalCars {
		t.Fatalf("days histogram covers %d cars over %d days, want %d over %d",
			totalCars, len(rep.DaysCount), batch.Presence.TotalCars, period.Days())
	}
	if !reflect.DeepEqual(rep.Carriers, batch.Carriers) {
		t.Fatalf("carriers %+v vs %+v", rep.Carriers, batch.Carriers)
	}
	d := batch.Durations
	if rep.DurMedian != d.Median || rep.DurP73 != d.P73 || rep.DurFullMean != d.FullMean || rep.DurTruncMean != d.TruncMean {
		t.Fatalf("durations median, p73, means %v, %v, %v, %v vs %v, %v, %v, %v",
			rep.DurMedian, rep.DurP73, rep.DurFullMean, rep.DurTruncMean, d.Median, d.P73, d.FullMean, d.TruncMean)
	}
}

func TestStreamingEmpty(t *testing.T) {
	s := NewStreamingWithOptions(Context{Period: simtime.NewPeriod(t0, 7)}, RunOptions{})
	rep := s.Finalize()
	if rep.Records != 0 || rep.Presence.TotalCars != 0 {
		t.Fatalf("empty report: %+v", rep)
	}
	if rep.DurMedian != 0 {
		t.Fatalf("empty median = %v", rep.DurMedian)
	}
}

func TestStreamingReFinalize(t *testing.T) {
	period := simtime.NewPeriod(t0, 7)
	s := NewStreamingWithOptions(Context{Period: period}, RunOptions{})
	s.Add(rec(1, cell(1), time.Hour, time.Minute))
	a := s.Finalize()
	s.Add(rec(2, cell(2), 2*time.Hour, time.Minute))
	b := s.Finalize()
	if a.Presence.TotalCars != 1 || b.Presence.TotalCars != 2 {
		t.Fatalf("re-finalize: %d then %d cars", a.Presence.TotalCars, b.Presence.TotalCars)
	}
}

func TestDaysBits(t *testing.T) {
	var d daysBits
	if !d.set(0) || d.set(0) {
		t.Fatal("set idempotence")
	}
	if !d.set(89) {
		t.Fatal("day 89")
	}
	if d.count() != 2 {
		t.Fatalf("count = %d", d.count())
	}
}

// TestStreamingLargeEquivalence runs streaming vs the engine over a bigger
// synthetic-ish random workload to catch accumulation drift.
func TestStreamingLargeEquivalence(t *testing.T) {
	period := simtime.NewPeriod(t0, 28)
	var records []cdr.Record
	for i := 0; i < 20000; i++ {
		car := cdr.CarID(i % 311)
		bs := radioPkg.BSID(i % 97)
		start := time.Duration(i%24*28) * time.Hour
		dur := time.Duration(30+i%900) * time.Second
		records = append(records, rec(car, cell(bs), start, dur))
	}
	s := NewStreamingWithOptions(Context{Period: period}, RunOptions{})
	for _, r := range records {
		s.Add(r)
	}
	rep := s.Finalize()
	batch, err := NewEngine(Context{Period: period}, EngineOptions{Workers: 2}).Run(records)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.Connected, batch.Connected) {
		t.Fatalf("drift: %v vs %v", rep.Connected.FullMean, batch.Connected.FullMean)
	}
	if rep.Records != int64(len(records)) {
		t.Fatalf("records = %d", rep.Records)
	}
}
