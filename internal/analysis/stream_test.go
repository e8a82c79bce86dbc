package analysis

import (
	"math"
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
	// counted. The batch reference below therefore runs on the
	// in-period subset — the standalone stage functions are period-less
	// primitives that analyze exactly what they are given.
	all := records[:len(records)-1]
	var ghostFree []cdr.Record
	for _, r := range all {
		if period.DayIndex(r.Start) >= 0 {
			ghostFree = append(ghostFree, r)
		}
	}
	if want := int64(len(all) - len(ghostFree)); rep.OutOfPeriod != want || want == 0 {
		t.Fatalf("out-of-period = %d, want %d (and the workload must exercise the policy)", rep.OutOfPeriod, want)
	}
	batchPresence := DailyPresenceOf(ghostFree, period)
	if rep.Presence.TotalCars != batchPresence.TotalCars {
		t.Fatalf("total cars %d vs %d", rep.Presence.TotalCars, batchPresence.TotalCars)
	}
	for d := range batchPresence.CarsFrac {
		if math.Abs(rep.Presence.CarsFrac[d]-batchPresence.CarsFrac[d]) > 1e-12 {
			t.Fatalf("day %d cars frac %v vs %v", d, rep.Presence.CarsFrac[d], batchPresence.CarsFrac[d])
		}
	}

	batchCT := ConnectedTimeOf(ghostFree, period)
	if math.Abs(rep.Connected.FullMean-batchCT.FullMean) > 1e-12 {
		t.Fatalf("full mean %v vs %v", rep.Connected.FullMean, batchCT.FullMean)
	}
	if math.Abs(rep.Connected.TruncMean-batchCT.TruncMean) > 1e-12 {
		t.Fatalf("trunc mean %v vs %v", rep.Connected.TruncMean, batchCT.TruncMean)
	}

	batchDays := DaysOnNetwork(ghostFree, period)
	for car, n := range batchDays {
		_ = car
		if n < 1 || n > 14 {
			t.Fatalf("days %d out of range", n)
		}
	}
	var totalCars int64
	for _, c := range rep.DaysCount {
		totalCars += c
	}
	if int(totalCars) != len(batchDays) {
		t.Fatalf("days histogram covers %d cars, want %d", totalCars, len(batchDays))
	}

	batchCarr := CarrierUsageOf(ghostFree)
	for c, f := range batchCarr.TimeFrac {
		if math.Abs(rep.Carriers.TimeFrac[c]-f) > 1e-12 {
			t.Fatalf("carrier %v time frac %v vs %v", c, rep.Carriers.TimeFrac[c], f)
		}
	}

	batchDur := CellDurationsOf(ghostFree)
	if math.Abs(rep.DurFullMean-batchDur.FullMean) > 1e-9 {
		t.Fatalf("full dur mean %v vs %v", rep.DurFullMean, batchDur.FullMean)
	}
	if math.Abs(rep.DurTruncMean-batchDur.TruncMean) > 1e-9 {
		t.Fatalf("trunc dur mean %v vs %v", rep.DurTruncMean, batchDur.TruncMean)
	}
	if rep.DurMedian != batchDur.Median || rep.DurP73 != batchDur.P73 {
		t.Fatalf("median, p73 %v, %v vs %v, %v", rep.DurMedian, rep.DurP73, batchDur.Median, batchDur.P73)
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

// TestStreamingLargeEquivalence runs streaming vs batch over a bigger
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
	batch := ConnectedTimeOf(records, period)
	if math.Abs(rep.Connected.FullMean-batch.FullMean) > 1e-12 {
		t.Fatalf("drift: %v vs %v", rep.Connected.FullMean, batch.FullMean)
	}
	if rep.Records != int64(len(records)) {
		t.Fatalf("records = %d", rep.Records)
	}
}
