package analysis

import (
	"math/rand/v2"
	"testing"
	"time"

	"cellcars/internal/cdr"
	"cellcars/internal/clean"
	"cellcars/internal/radio"
	"cellcars/internal/simtime"
)

var t0 = time.Date(2017, 1, 2, 0, 0, 0, 0, time.UTC)

func rec(car cdr.CarID, cell radio.CellKey, start, dur time.Duration) cdr.Record {
	return cdr.Record{Car: car, Cell: cell, Start: t0.Add(start), Duration: dur}
}

func cell(bs radio.BSID) radio.CellKey { return radio.MakeCellKey(bs, 0, radio.C3) }

// fixedLoad is a synthetic load.Source for unit tests: a set of
// (cell) → busy flag, with busy cells at 0.9 and idle at 0.2.
type fixedLoad struct {
	busy map[radio.CellKey]bool
}

func (f *fixedLoad) Utilization(c radio.CellKey, bin int) float64 {
	if f.busy[c] {
		return 0.9
	}
	return 0.2
}
func (f *fixedLoad) BusyThreshold() float64 { return 0.8 }

func testCtx() Context {
	return Context{
		Period:          simtime.NewPeriod(t0, 14),
		Load:            &fixedLoad{busy: map[radio.CellKey]bool{cell(99): true}},
		TZOffsetSeconds: -5 * 3600,
	}
}

func TestDailyPresence(t *testing.T) {
	period := simtime.NewPeriod(t0, 7)
	records := []cdr.Record{
		rec(1, cell(1), 0, time.Minute),              // day 0
		rec(2, cell(1), time.Hour, time.Minute),      // day 0
		rec(1, cell(2), 25*time.Hour, time.Minute),   // day 1
		rec(1, cell(2), 26*time.Hour, time.Minute),   // day 1 dup
		rec(3, cell(3), 6*24*time.Hour, time.Minute), // day 6
	}
	p := DailyPresenceOf(records, period)
	if p.TotalCars != 3 || p.TotalCells != 3 {
		t.Fatalf("totals: %d cars, %d cells", p.TotalCars, p.TotalCells)
	}
	wantCars := []float64{2.0 / 3, 1.0 / 3, 0, 0, 0, 0, 1.0 / 3}
	for d, w := range wantCars {
		if diff := p.CarsFrac[d] - w; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("day %d cars frac = %v, want %v", d, p.CarsFrac[d], w)
		}
	}
	if p.CellsFrac[0] != 1.0/3 {
		t.Fatalf("day 0 cells frac = %v", p.CellsFrac[0])
	}
	if p.CarsTrend.N != 7 {
		t.Fatalf("trend over %d days", p.CarsTrend.N)
	}
}

func TestDailyPresenceIgnoresOutOfPeriod(t *testing.T) {
	period := simtime.NewPeriod(t0, 7)
	records := []cdr.Record{rec(1, cell(1), -48*time.Hour, time.Minute)}
	p := DailyPresenceOf(records, period)
	if p.TotalCars != 0 {
		t.Fatal("out-of-period record counted")
	}
}

func TestTable1Grouping(t *testing.T) {
	period := simtime.NewPeriod(t0, 14) // two full Mon-Sun weeks
	var records []cdr.Record
	// Car 1 appears every day; car 2 appears only on Mondays.
	for d := 0; d < 14; d++ {
		records = append(records, rec(1, cell(1), time.Duration(d)*24*time.Hour, time.Minute))
		if d%7 == 0 {
			records = append(records, rec(2, cell(1), time.Duration(d)*24*time.Hour+time.Hour, time.Minute))
		}
	}
	rows := Table1(DailyPresenceOf(records, period), period)
	if len(rows) != 8 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Label != "Monday" || rows[7].Label != "Overall" {
		t.Fatalf("labels: %v %v", rows[0].Label, rows[7].Label)
	}
	if rows[0].CarsMean != 1 { // both cars on both Mondays
		t.Fatalf("Monday cars mean = %v", rows[0].CarsMean)
	}
	if rows[1].CarsMean != 0.5 { // only car 1 on Tuesdays
		t.Fatalf("Tuesday cars mean = %v", rows[1].CarsMean)
	}
	if rows[0].CarsStd != 0 {
		t.Fatalf("Monday std = %v, want 0", rows[0].CarsStd)
	}
	if s := FormatTable1(rows); len(s) == 0 {
		t.Fatal("empty format")
	}
}

func TestConnectedTime(t *testing.T) {
	period := simtime.NewPeriod(t0, 1) // 86400 s
	records := []cdr.Record{
		rec(1, cell(1), 0, 864*time.Second),          // 1% of day
		rec(2, cell(1), time.Hour, 8640*time.Second), // 10%, truncated to 600 s
	}
	ct := ConnectedTimeOf(records, period)
	if ct.Full.N() != 2 {
		t.Fatalf("cars = %d", ct.Full.N())
	}
	wantFull := (0.01 + 0.10) / 2
	if diff := ct.FullMean - wantFull; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("full mean = %v, want %v", ct.FullMean, wantFull)
	}
	wantTrunc := (600.0/86400 + 600.0/86400) / 2 // both connections truncate
	if diff := ct.TruncMean - wantTrunc; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("trunc mean = %v, want %v", ct.TruncMean, wantTrunc)
	}
	if ct.FullMean <= ct.TruncMean {
		t.Fatal("truncation must reduce the mean")
	}
}

func TestReferenceMatrices(t *testing.T) {
	commute, peak, weekend := ReferenceMatrices()
	if commute.At(8, 2) != 1 || commute.At(8, 6) != 0 || commute.At(12, 2) != 0 {
		t.Fatal("commute matrix wrong")
	}
	if peak.At(20, 0) != 1 || peak.At(3, 0) != 0 {
		t.Fatal("network peak matrix wrong")
	}
	if weekend.At(10, 5) != 1 || weekend.At(10, 4) != 0 {
		t.Fatal("weekend matrix wrong")
	}
}

func TestUsageMatrix(t *testing.T) {
	ctx := testCtx()
	// Monday 12:00 UTC = Monday 07:00 local (UTC-5).
	records := []cdr.Record{
		rec(1, cell(1), 12*time.Hour, 10*time.Minute),
		rec(1, cell(2), 12*time.Hour+11*time.Minute, 10*time.Minute), // same session (gap 60 s > 30? no: 60s gap)
	}
	// Gap between records is 1 min > 30 s: two sessions, same hour.
	m := UsageMatrix(records, ctx)
	if got := m.At(7, 0); got != 2 {
		t.Fatalf("Monday 07 local = %v, want 2 sessions", got)
	}
	if m.Sum() != 2 {
		t.Fatalf("matrix sum = %v", m.Sum())
	}
}

func TestUsageMatrixSessionSpanningHours(t *testing.T) {
	ctx := testCtx()
	// One 2.5-hour session starting Monday 11:30 UTC = 06:30 local:
	// touches local hours 6, 7, 8.
	records := []cdr.Record{rec(1, cell(1), 11*time.Hour+30*time.Minute, 150*time.Minute)}
	m := UsageMatrix(records, ctx)
	for _, h := range []int{6, 7, 8} {
		if m.At(h, 0) != 1 {
			t.Fatalf("hour %d = %v, want 1", h, m.At(h, 0))
		}
	}
	if m.Sum() != 3 {
		t.Fatalf("sum = %v", m.Sum())
	}
}

func TestDaysOnNetworkAndHistogram(t *testing.T) {
	period := simtime.NewPeriod(t0, 14)
	var records []cdr.Record
	for d := 0; d < 10; d++ {
		records = append(records, rec(1, cell(1), time.Duration(d)*24*time.Hour, time.Minute))
	}
	records = append(records, rec(2, cell(1), 0, time.Minute))
	days := DaysOnNetwork(records, period)
	if days[1] != 10 || days[2] != 1 {
		t.Fatalf("days: %v", days)
	}
	h := DaysHistogram(records, period)
	if h.Counts[0] != 1 || h.Counts[9] != 1 {
		t.Fatalf("histogram: %v", h.Counts)
	}
	if h.Total() != 2 {
		t.Fatalf("total = %d", h.Total())
	}
}

func TestBusyTime(t *testing.T) {
	ctx := testCtx()
	busy := cell(99)
	idle := cell(1)
	records := []cdr.Record{
		// Car 1: 100% busy. Car 2: 0% busy. Car 3: half and half.
		rec(1, busy, time.Hour, 10*time.Minute),
		rec(2, idle, time.Hour, 10*time.Minute),
		rec(3, busy, time.Hour, 10*time.Minute),
		rec(3, idle, 2*time.Hour, 10*time.Minute),
	}
	bt := BusyTimeOf(records, ctx)
	if f := bt.FracByCar[1]; f != 1 {
		t.Fatalf("car 1 busy frac = %v", f)
	}
	if f := bt.FracByCar[2]; f != 0 {
		t.Fatalf("car 2 busy frac = %v", f)
	}
	if f := bt.FracByCar[3]; f != 0.5 {
		t.Fatalf("car 3 busy frac = %v", f)
	}
	if bt.OverHalf != 1.0/3 {
		t.Fatalf("over half = %v", bt.OverHalf)
	}
	if bt.AllBusy != 1.0/3 {
		t.Fatalf("all busy = %v", bt.AllBusy)
	}
	h := bt.Histogram7a()
	if h[0] == 0 || h[9] == 0 {
		t.Fatalf("7a histogram: %v", h)
	}
}

func TestBusyTimePanicsWithoutLoad(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	BusyTimeOf(nil, Context{Period: simtime.NewPeriod(t0, 7)})
}

func TestSegmentation(t *testing.T) {
	ctx := testCtx()
	busy := cell(99)
	idle := cell(1)
	var records []cdr.Record
	// Car 1: 20 days, always busy. Car 2: 5 days, never busy.
	// Car 3: 12 days, balanced.
	for d := 0; d < 10; d++ {
		records = append(records,
			rec(1, busy, time.Duration(d)*24*time.Hour, 10*time.Minute))
	}
	for d := 0; d < 5; d++ {
		records = append(records,
			rec(2, idle, time.Duration(d)*24*time.Hour+time.Hour, 10*time.Minute))
	}
	for d := 0; d < 12; d++ {
		c := busy
		if d%2 == 0 {
			c = idle
		}
		records = append(records,
			rec(3, c, time.Duration(d)*24*time.Hour+2*time.Hour, 10*time.Minute))
	}
	segs := Segmentation(records, ctx, 6)
	if len(segs) != 1 {
		t.Fatalf("segments = %d", len(segs))
	}
	s := segs[0]
	third := 1.0 / 3
	if diff := s.CommonBusy - third; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("common busy = %v", s.CommonBusy)
	}
	if diff := s.RareNonBusy - third; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("rare non-busy = %v", s.RareNonBusy)
	}
	if diff := s.CommonBoth - third; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("common both = %v", s.CommonBoth)
	}
	if tot := s.RareTotal() + s.CommonTotal(); tot < 0.999 || tot > 1.001 {
		t.Fatalf("segments don't partition: %v", tot)
	}
	if out := FormatTable2(segs); len(out) == 0 {
		t.Fatal("empty table 2")
	}
}

func TestCellDay(t *testing.T) {
	ctx := testCtx()
	target := cell(5)
	records := []cdr.Record{
		rec(1, target, 10*time.Hour, 5*time.Minute),
		rec(2, target, 10*time.Hour+2*time.Minute, 5*time.Minute),
		rec(3, target, 20*time.Hour, 5*time.Minute),
		rec(1, cell(6), 11*time.Hour, 5*time.Minute), // other cell: ignored
		rec(4, target, 30*time.Hour, 5*time.Minute),  // next day: ignored
	}
	res := CellDay(records, ctx, target, 0)
	if res.UniqueCars != 3 {
		t.Fatalf("unique cars = %d", res.UniqueCars)
	}
	if len(res.Spans) != 3 {
		t.Fatalf("spans = %d", len(res.Spans))
	}
	if res.PeakCars != 2 {
		t.Fatalf("peak cars = %d", res.PeakCars)
	}
	wantPeakBin := 10 * simtime.BinsPerHour
	if res.PeakBin != wantPeakBin {
		t.Fatalf("peak bin = %d, want %d", res.PeakBin, wantPeakBin)
	}
}

func TestCellDayClampsMidnightSpans(t *testing.T) {
	ctx := testCtx()
	target := cell(5)
	// A connection starting 23:50 day 0 and running 20 minutes.
	records := []cdr.Record{rec(1, target, 23*time.Hour+50*time.Minute, 20*time.Minute)}
	res0 := CellDay(records, ctx, target, 0)
	if len(res0.Spans) != 1 || !res0.Spans[0].End.Equal(t0.Add(24*time.Hour)) {
		t.Fatalf("day 0 span: %+v", res0.Spans)
	}
	res1 := CellDay(records, ctx, target, 1)
	if len(res1.Spans) != 1 || !res1.Spans[0].Start.Equal(t0.Add(24*time.Hour)) {
		t.Fatalf("day 1 span: %+v", res1.Spans)
	}
}

func TestBusiestCellDay(t *testing.T) {
	ctx := testCtx()
	target := cell(5)
	records := []cdr.Record{
		rec(1, target, time.Hour, time.Minute),
		rec(2, target, 2*time.Hour, time.Minute),
		rec(3, target, 3*time.Hour, time.Minute),
		rec(1, cell(6), time.Hour, time.Minute),
	}
	c, day := busiestCellDay(records, ctx)
	if c != target || day != 0 {
		t.Fatalf("busiest = %v day %d", c, day)
	}
}

func TestCellDurations(t *testing.T) {
	var records []cdr.Record
	for i := 0; i < 73; i++ {
		records = append(records, rec(1, cell(1), time.Duration(i)*time.Hour, 100*time.Second))
	}
	for i := 0; i < 27; i++ {
		records = append(records, rec(1, cell(1), time.Duration(100+i)*time.Hour, 2000*time.Second))
	}
	cd := CellDurationsOf(records)
	if cd.Median != 100 {
		t.Fatalf("median = %v", cd.Median)
	}
	if cd.P73 > 600.1 || cd.P73 < 100 {
		t.Fatalf("p73 = %v", cd.P73)
	}
	if cd.FullMean <= cd.TruncMean {
		t.Fatal("full mean must exceed truncated mean")
	}
	wantFull := (73*100.0 + 27*2000.0) / 100
	if diff := cd.FullMean - wantFull; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("full mean = %v, want %v", cd.FullMean, wantFull)
	}
}

func TestCellWeek(t *testing.T) {
	ctx := testCtx()
	target := cell(99)
	records := []cdr.Record{
		rec(1, target, 10*time.Hour, 10*time.Minute),
		rec(2, target, 10*time.Hour+5*time.Minute, 10*time.Minute),
	}
	res := CellWeek(records, ctx, target, 0)
	bin := 10 * simtime.BinsPerHour
	if res.Concurrency[bin] != 2 {
		t.Fatalf("concurrency at bin %d = %v", bin, res.Concurrency[bin])
	}
	if res.Utilization[bin] != 0.9 {
		t.Fatalf("utilization = %v", res.Utilization[bin])
	}
}

func TestCellWeekPanics(t *testing.T) {
	ctx := testCtx()
	cases := map[string]func(){
		"no load":  func() { CellWeek(nil, Context{Period: ctx.Period}, cell(1), 0) },
		"bad week": func() { CellWeek(nil, ctx, cell(1), 5) },
		"neg week": func() { CellWeek(nil, ctx, cell(1), -1) },
	}
	for name, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestClusterBusyCells(t *testing.T) {
	ctx := testCtx()
	// Six quiet cells (1 car at noon), two hot cells (8 cars at noon).
	var records []cdr.Record
	var cells []radio.CellKey
	for b := radio.BSID(1); b <= 6; b++ {
		c := cell(b)
		cells = append(cells, c)
		records = append(records, rec(cdr.CarID(b), c, 12*time.Hour, 10*time.Minute))
	}
	for b := radio.BSID(7); b <= 8; b++ {
		c := cell(b)
		cells = append(cells, c)
		for car := cdr.CarID(0); car < 8; car++ {
			records = append(records, rec(100+car, c, 12*time.Hour+time.Duration(car)*time.Minute, 10*time.Minute))
		}
	}
	res := ClusterBusyCells(records, ctx, cells, rand.New(rand.NewPCG(1, 2)))
	if len(res.Sizes) != 2 {
		t.Fatalf("sizes = %v", res.Sizes)
	}
	if res.Sizes[0] != 6 || res.Sizes[1] != 2 {
		t.Fatalf("cluster sizes = %v, want [6 2]", res.Sizes)
	}
	if r := res.PeakRatio(); r < 3 {
		t.Fatalf("peak ratio = %v, want >= 3", r)
	}
}

func TestClusterBusyCellsDegenerate(t *testing.T) {
	ctx := testCtx()
	res := ClusterBusyCells(nil, ctx, []radio.CellKey{cell(1)}, rand.New(rand.NewPCG(1, 1)))
	if res.Cells != nil {
		t.Fatal("single-cell input should return empty result")
	}
	if res.PeakRatio() != 0 {
		t.Fatal("empty result peak ratio")
	}
}

func TestHandovers(t *testing.T) {
	// One car, one mobility session crossing 3 base stations, then a
	// separate session after a >10 min gap with no handover.
	records := []cdr.Record{
		rec(1, cell(1), 0, 2*time.Minute),
		rec(1, cell(2), 3*time.Minute, 2*time.Minute),
		rec(1, cell(3), 6*time.Minute, 2*time.Minute),
		rec(1, cell(7), time.Hour, 2*time.Minute),
	}
	hs, err := HandoversOf(records)
	if err != nil {
		t.Fatal(err)
	}
	if hs.Sessions != 2 {
		t.Fatalf("sessions = %d", hs.Sessions)
	}
	if hs.ByKind[radio.HandoverInterBS] != 2 {
		t.Fatalf("inter-BS = %d", hs.ByKind[radio.HandoverInterBS])
	}
	if hs.InterBSShare() != 1 {
		t.Fatalf("inter-BS share = %v", hs.InterBSShare())
	}
	if hs.Median != 1 { // sessions have 2 and 0 handovers
		t.Fatalf("median = %v", hs.Median)
	}
}

func TestHandoversEmpty(t *testing.T) {
	hs, err := HandoversOf(nil)
	if err != nil {
		t.Fatal(err)
	}
	if hs.Sessions != 0 || hs.InterBSShare() != 0 {
		t.Fatal("empty stream handling")
	}
}

func TestCarrierUsage(t *testing.T) {
	c3 := radio.MakeCellKey(1, 0, radio.C3)
	c4 := radio.MakeCellKey(1, 0, radio.C4)
	records := []cdr.Record{
		rec(1, c3, 0, 300*time.Second),
		rec(1, c4, time.Hour, 100*time.Second),
		rec(2, c3, 2*time.Hour, 100*time.Second),
	}
	u := CarrierUsageOf(records)
	if u.TotalCars != 2 {
		t.Fatalf("cars = %d", u.TotalCars)
	}
	if u.CarsFrac[radio.C3] != 1 || u.CarsFrac[radio.C4] != 0.5 || u.CarsFrac[radio.C5] != 0 {
		t.Fatalf("cars frac: %v", u.CarsFrac)
	}
	if diff := u.TimeFrac[radio.C3] - 0.8; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("C3 time frac = %v", u.TimeFrac[radio.C3])
	}
	if s := FormatTable3(u); len(s) == 0 {
		t.Fatal("empty table 3")
	}
}

func TestRecordsOfCar(t *testing.T) {
	records := []cdr.Record{
		rec(1, cell(1), 0, time.Minute),
		rec(2, cell(1), time.Hour, time.Minute),
		rec(1, cell(2), 2*time.Hour, time.Minute),
	}
	got := RecordsOfCar(records, 1)
	if len(got) != 2 || got[0].Cell != cell(1) || got[1].Cell != cell(2) {
		t.Fatalf("records of car 1: %v", got)
	}
}

func TestUsageMatrixRespectsGhostCleaning(t *testing.T) {
	ctx := testCtx()
	raw := []cdr.Record{
		rec(1, cell(1), 12*time.Hour, time.Hour), // ghost
		rec(1, cell(1), 15*time.Hour, time.Minute),
	}
	cleaned, err := cdr.ReadAll(clean.RemoveGhosts(cdr.NewSliceReader(raw)))
	if err != nil {
		t.Fatal(err)
	}
	m := UsageMatrix(cleaned, ctx)
	if m.Sum() != 1 {
		t.Fatalf("sum = %v after ghost cleaning", m.Sum())
	}
}
