package analysis

import (
	"testing"
	"time"

	"cellcars/internal/cdr"
	"cellcars/internal/radio"
	"cellcars/internal/simtime"
)

func TestRunFullPipeline(t *testing.T) {
	ctx := testCtx()
	busyCell := cell(99)
	idleCell := cell(1)
	var records []cdr.Record
	// A week of activity for three cars, plus a ghost and a stuck record.
	for d := 0; d < 7; d++ {
		base := time.Duration(d) * 24 * time.Hour
		records = append(records,
			rec(1, idleCell, base+8*time.Hour, 2*time.Minute),
			rec(1, cell(2), base+8*time.Hour+3*time.Minute, 2*time.Minute),
			rec(2, busyCell, base+18*time.Hour, 5*time.Minute),
		)
	}
	records = append(records,
		rec(3, idleCell, 30*time.Hour, time.Hour),   // ghost
		rec(3, idleCell, 50*time.Hour, 2*time.Hour), // stuck (truncated for handovers)
	)
	cdr.Sort(records)

	report, err := NewEngine(ctx, EngineOptions{RunOptions: RunOptions{
		RareDays:  []int{1, 3},
		BusyCells: []radio.CellKey{busyCell, idleCell},
	}}).Run(records)
	if err != nil {
		t.Fatal(err)
	}
	if report.RawRecords != len(records) || report.CleanRecords != len(records)-1 {
		t.Fatalf("counts: raw %d clean %d", report.RawRecords, report.CleanRecords)
	}
	if report.Presence.TotalCars != 3 {
		t.Fatalf("cars = %d", report.Presence.TotalCars)
	}
	if len(report.WeekdayRows) != 8 {
		t.Fatalf("weekday rows = %d", len(report.WeekdayRows))
	}
	if report.Connected.FullMean <= 0 {
		t.Fatal("no connected time")
	}
	if report.DaysHist.Total() != 3 {
		t.Fatalf("days hist total = %d", report.DaysHist.Total())
	}
	if len(report.Segments) != 2 {
		t.Fatalf("segments = %d", len(report.Segments))
	}
	// Car 2 lives on the busy cell → busy fraction 1.
	if f := report.Busy.FracByCar[2]; f != 1 {
		t.Fatalf("car 2 busy frac = %v", f)
	}
	if report.Durations.Median <= 0 {
		t.Fatal("no durations")
	}
	if report.Handovers.Sessions == 0 {
		t.Fatal("no mobility sessions")
	}
	// Car 1 hops bs1 → bs2 every day.
	if report.Handovers.ByKind[radio.HandoverInterBS] < 7 {
		t.Fatalf("inter-BS = %d", report.Handovers.ByKind[radio.HandoverInterBS])
	}
	if report.Carriers.TotalCars != 3 {
		t.Fatalf("carrier cars = %d", report.Carriers.TotalCars)
	}
	if len(report.Clusters.Sizes) != 2 {
		t.Fatalf("clusters = %v", report.Clusters.Sizes)
	}
}

func TestRunDefaults(t *testing.T) {
	ctx := testCtx()
	records := []cdr.Record{rec(1, cell(1), time.Hour, time.Minute)}
	report, err := NewEngine(ctx, EngineOptions{}).Run(records)
	if err != nil {
		t.Fatal(err)
	}
	// Default rare thresholds are {10, 30}.
	if len(report.Segments) != 2 || report.Segments[0].RareDays != 10 || report.Segments[1].RareDays != 30 {
		t.Fatalf("default segments: %+v", report.Segments)
	}
	// No busy cells supplied: clustering skipped.
	if report.Clusters.Cells != nil {
		t.Fatal("clustering should be skipped without busy cells")
	}
}

func TestRunWithoutLoadSource(t *testing.T) {
	ctx := Context{Period: simtime.NewPeriod(t0, 7)}
	records := []cdr.Record{rec(1, cell(1), time.Hour, time.Minute)}
	report, err := NewEngine(ctx, EngineOptions{}).Run(records)
	if err != nil {
		t.Fatal(err)
	}
	if report.Segments != nil || report.Busy.FracByCar != nil {
		t.Fatal("segmentation and busy time should be skipped without a load source")
	}
	if report.Presence.TotalCars != 1 {
		t.Fatal("record-level analyses must still run")
	}
}

// TestPresenceLongPeriod exercises the map-fallback path used when the
// study exceeds the 64-day bitmap capacity (the paper's 90-day window).
func TestPresenceLongPeriod(t *testing.T) {
	period := simtime.NewPeriod(t0, 90)
	var records []cdr.Record
	// Car 1 on days 0, 63, 64, 89 — straddling the word boundary.
	for _, d := range []int{0, 63, 64, 89} {
		records = append(records, rec(1, cell(1), time.Duration(d)*24*time.Hour, time.Minute))
		// Duplicate on the same day must not double count.
		records = append(records, rec(1, cell(1), time.Duration(d)*24*time.Hour+time.Hour, time.Minute))
	}
	acc := feed(records, period, func(cars *carTable) *presenceAcc { return newPresenceAcc(Context{Period: period}, cars) })
	p := finalized(acc).Presence
	if p.TotalCars != 1 || p.TotalCells != 1 {
		t.Fatalf("totals: %d/%d", p.TotalCars, p.TotalCells)
	}
	for _, d := range []int{0, 63, 64, 89} {
		if p.CarsFrac[d] != 1 {
			t.Fatalf("day %d frac = %v", d, p.CarsFrac[d])
		}
	}
	if p.CarsFrac[1] != 0 {
		t.Fatal("phantom presence on day 1")
	}
	if h := finalized(daysStage{derived{acc}}).DaysHist; h.Counts[3] != 1 || h.Total() != 1 {
		t.Fatalf("days histogram %v, want car 1 on 4 days", h.Counts)
	}
}
