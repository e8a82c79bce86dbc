package simtime

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
	"time"
)

func TestNewPeriodMidnightAlignment(t *testing.T) {
	p := NewPeriod(time.Date(2017, 3, 15, 13, 45, 12, 0, time.UTC), 10)
	if got := p.Start(); got != time.Date(2017, 3, 15, 0, 0, 0, 0, time.UTC) {
		t.Fatalf("start not aligned to midnight: %v", got)
	}
	if p.Days() != 10 {
		t.Fatalf("days = %d, want 10", p.Days())
	}
	if got, want := p.End(), p.Start().AddDate(0, 0, 10); got != want {
		t.Fatalf("end = %v, want %v", got, want)
	}
}

func TestNewPeriodPanicsOnNonPositiveDays(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for days=0")
		}
	}()
	NewPeriod(time.Now(), 0)
}

func TestDefaultPeriodStartsMonday(t *testing.T) {
	p := DefaultPeriod()
	if p.Start().Weekday() != time.Monday {
		t.Fatalf("default period starts on %v, want Monday", p.Start().Weekday())
	}
	if p.Days() != DefaultStudyDays {
		t.Fatalf("default period is %d days, want %d", p.Days(), DefaultStudyDays)
	}
}

func TestContains(t *testing.T) {
	p := DefaultPeriod()
	cases := []struct {
		t    time.Time
		want bool
	}{
		{p.Start(), true},
		{p.Start().Add(-time.Nanosecond), false},
		{p.End().Add(-time.Nanosecond), true},
		{p.End(), false},
		{p.Start().AddDate(0, 0, 45), true},
	}
	for _, c := range cases {
		if got := p.Contains(c.t); got != c.want {
			t.Errorf("Contains(%v) = %v, want %v", c.t, got, c.want)
		}
	}
}

// TestPeriodArithmeticMatchesCalendarDefinition holds the per-record
// forms of End, Contains (a multiply, one saturating Sub) and DayIndex
// (integer seconds) to the calendar definitions they replaced (AddDate
// and Before), on random instants — sub-second ones before 1970 among
// them — on both edges to the nanosecond, on instants far enough away
// that Sub saturates, and on instants at the ends of what Unix seconds
// hold, where a subtraction would overflow.
func TestPeriodArithmeticMatchesCalendarDefinition(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 1))
	for _, p := range []Period{
		DefaultPeriod(),
		NewPeriod(time.Date(2017, 3, 15, 13, 45, 0, 0, time.UTC), 1),
		NewPeriod(time.Date(2016, 2, 20, 0, 0, 0, 0, time.FixedZone("x", -5*3600)), 400), // across a leap day
		NewPeriod(time.Date(1969, 12, 30, 0, 0, 0, 0, time.UTC), 14),                     // across the Unix epoch
		NewPeriod(time.Date(1677, 9, 22, 0, 0, 0, 0, time.UTC), 3),                       // the first whole day UnixNano holds
		NewPeriod(time.Date(2262, 4, 8, 0, 0, 0, 0, time.UTC), 3),                        // the last
	} {
		end := p.Start().AddDate(0, 0, p.Days())
		if !p.End().Equal(end) || p.Duration() != end.Sub(p.Start()) {
			t.Fatalf("%v+%dd: End %v Duration %v, calendar says %v", p.Start(), p.Days(), p.End(), p.Duration(), end)
		}
		check := func(at time.Time) {
			t.Helper()
			contains := !at.Before(p.Start()) && at.Before(end)
			day := -1
			if contains {
				day = int(at.Sub(p.Start()) / (24 * time.Hour))
			}
			if p.Contains(at) != contains || p.DayIndex(at) != day {
				t.Fatalf("%v+%dd at %v: Contains %v DayIndex %d, calendar says %v %d",
					p.Start(), p.Days(), at, p.Contains(at), p.DayIndex(at), contains, day)
			}
		}
		for _, edge := range []time.Time{p.Start(), end} {
			for _, off := range []time.Duration{-time.Nanosecond, 0, time.Nanosecond} {
				check(edge.Add(off))
			}
		}
		for day := 1; day < p.Days(); day++ {
			check(p.DayStart(day).Add(-time.Nanosecond))
			check(p.DayStart(day))
		}
		span := int64(p.Duration())
		for i := 0; i < 20000; i++ {
			check(p.Start().Add(time.Duration(rng.Int64N(3*span) - span)))
		}
		// More than ~292 years either side: Sub saturates.
		for _, years := range []int{-2000, -400, -293, 293, 400, 5000} {
			check(p.Start().AddDate(years, 0, 0))
		}
		check(time.Time{})
		for _, sec := range []int64{math.MinInt64, math.MinInt64 + 1, math.MaxInt64 - 62135596800, math.MaxInt64} {
			check(time.Unix(sec, 999_999_999))
			check(time.Unix(sec, 0))
		}
	}
}

// TestCheckPeriodBounds: a period is refused exactly when some instant
// of it has no Unix-nanosecond clock, or its length is not positive or
// not a time.Duration — and NewPeriod panics exactly then.
func TestCheckPeriodBounds(t *testing.T) {
	day := func(y int, m time.Month, d int) time.Time { return time.Date(y, m, d, 12, 0, 0, 0, time.UTC) }
	for _, c := range []struct {
		start time.Time
		days  int
		ok    bool
	}{
		{day(2017, 1, 2), 90, true},
		{day(2017, 1, 2), 0, false},
		{day(2017, 1, 2), -3, false},
		{day(1677, 9, 22), 1, true},
		{day(1677, 9, 21), 1, false}, // midnight precedes 00:12:43.145224192
		{day(2262, 4, 10), 1, true},  // ends at 2262-04-11T00:00
		{day(2262, 4, 10), 2, false}, // its last day passes 23:47:16.854775807
		{day(2262, 4, 11), 1, false},
		{day(2263, 1, 1), 14, false},
		{day(1500, 1, 1), 14, false},
		{day(1700, 1, 1), 106751, true},
		{day(1700, 1, 1), 106752, false}, // longer than a time.Duration
	} {
		err := CheckPeriod(c.start, c.days)
		if (err == nil) != c.ok {
			t.Errorf("CheckPeriod(%s, %d) = %v, want ok=%v", c.start.Format("2006-01-02"), c.days, err, c.ok)
			continue
		}
		panicked := func() (p bool) {
			defer func() { p = recover() != nil }()
			NewPeriod(c.start, c.days)
			return false
		}()
		if panicked == c.ok {
			t.Errorf("NewPeriod(%s, %d) panicked=%v, CheckPeriod says ok=%v", c.start.Format("2006-01-02"), c.days, panicked, c.ok)
		}
		if c.ok {
			p := NewPeriod(c.start, c.days)
			if p.Start().UnixNano() != p.Start().Unix()*1e9 || p.End().Add(-time.Nanosecond).After(time.Unix(0, math.MaxInt64)) {
				t.Errorf("%s+%dd: an accepted period leaves UnixNano's range", c.start.Format("2006-01-02"), c.days)
			}
		}
	}
}

func TestDayIndexRoundTrip(t *testing.T) {
	p := DefaultPeriod()
	for day := 0; day < p.Days(); day += 7 {
		start := p.DayStart(day)
		if got := p.DayIndex(start); got != day {
			t.Fatalf("DayIndex(DayStart(%d)) = %d", day, got)
		}
		if got := p.DayIndex(start.Add(23*time.Hour + 59*time.Minute)); got != day {
			t.Fatalf("late-day index = %d, want %d", got, day)
		}
	}
	if got := p.DayIndex(p.End()); got != -1 {
		t.Fatalf("DayIndex(end) = %d, want -1", got)
	}
}

func TestWeekdayProgression(t *testing.T) {
	p := DefaultPeriod()
	want := []time.Weekday{
		time.Monday, time.Tuesday, time.Wednesday, time.Thursday,
		time.Friday, time.Saturday, time.Sunday, time.Monday,
	}
	for i, w := range want {
		if got := p.Weekday(i); got != w {
			t.Fatalf("Weekday(%d) = %v, want %v", i, got, w)
		}
	}
}

func TestBinIndexAndStart(t *testing.T) {
	p := DefaultPeriod()
	if p.NumBins() != 90*96 {
		t.Fatalf("NumBins = %d, want %d", p.NumBins(), 90*96)
	}
	for _, bin := range []int{0, 1, 95, 96, 97, p.NumBins() - 1} {
		start := p.BinStart(bin)
		if got := p.BinIndex(start); got != bin {
			t.Fatalf("BinIndex(BinStart(%d)) = %d", bin, got)
		}
		if got := p.BinIndex(start.Add(14*time.Minute + 59*time.Second)); got != bin {
			t.Fatalf("BinIndex at bin end = %d, want %d", got, bin)
		}
	}
}

func TestBinRange(t *testing.T) {
	p := DefaultPeriod()
	cases := []struct {
		name        string
		start       time.Time
		d           time.Duration
		first, last int
	}{
		{"one bin interior", p.Start().Add(5 * time.Minute), 5 * time.Minute, 0, 1},
		{"exactly one bin", p.Start(), BinWidth, 0, 1},
		{"straddles two bins", p.Start().Add(10 * time.Minute), 10 * time.Minute, 0, 2},
		{"full day", p.Start(), 24 * time.Hour, 0, 96},
		{"before period", p.Start().Add(-2 * time.Hour), time.Hour, 0, 0},
		{"clamped at end", p.End().Add(-time.Minute), time.Hour, p.NumBins() - 1, p.NumBins()},
	}
	for _, c := range cases {
		first, last := p.BinRange(c.start, c.d)
		if first != c.first || last != c.last {
			t.Errorf("%s: BinRange = [%d,%d), want [%d,%d)", c.name, first, last, c.first, c.last)
		}
	}
}

func TestBinRangeCoversDurationProperty(t *testing.T) {
	p := DefaultPeriod()
	// The sum of per-bin overlaps over the returned bin range must equal
	// the clamped duration, for any interval.
	f := func(startOffsetMin uint32, durMin uint16) bool {
		start := p.Start().Add(time.Duration(startOffsetMin%200000) * time.Minute)
		d := time.Duration(durMin%2000) * time.Minute
		_, clamped := p.Clamp(start, d)
		first, last := p.BinRange(start, d)
		var sum time.Duration
		for b := first; b < last; b++ {
			sum += p.OverlapWithBin(b, start, d)
		}
		return sum == clamped
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestClamp(t *testing.T) {
	p := DefaultPeriod()
	start, d := p.Clamp(p.Start().Add(-time.Hour), 2*time.Hour)
	if start != p.Start() || d != time.Hour {
		t.Fatalf("clamp before start: got (%v,%v)", start, d)
	}
	start, d = p.Clamp(p.End().Add(-time.Minute), time.Hour)
	if d != time.Minute {
		t.Fatalf("clamp at end: duration %v, want 1m", d)
	}
	_, d = p.Clamp(p.End().Add(time.Hour), time.Hour)
	if d != 0 {
		t.Fatalf("clamp outside: duration %v, want 0", d)
	}
	_, d = p.Clamp(p.Start(), -time.Minute)
	if d != 0 {
		t.Fatalf("negative duration clamps to %v, want 0", d)
	}
}

func TestHourOfWeek(t *testing.T) {
	mon := time.Date(2017, 1, 2, 7, 30, 0, 0, time.UTC)
	if got := HourOfWeek(mon, 0); got != 7 {
		t.Fatalf("Monday 07:30 hour-of-week = %d, want 7", got)
	}
	if got := HourOfWeek(mon, -8*3600); got != 6*24+23 {
		t.Fatalf("UTC-8 hour-of-week = %d, want %d", got, 6*24+23)
	}
}

func TestWeekMatrixBasics(t *testing.T) {
	var m WeekMatrix
	m.Add(7, 0, 2)
	m.Add(7, 0, 3)
	m.Add(23, 6, 1)
	if got := m.At(7, 0); got != 5 {
		t.Fatalf("At(7,0) = %v, want 5", got)
	}
	if got := m.Max(); got != 5 {
		t.Fatalf("Max = %v, want 5", got)
	}
	if got := m.Sum(); got != 6 {
		t.Fatalf("Sum = %v, want 6", got)
	}
	if got := m.ActiveCells(0); got != 2 {
		t.Fatalf("ActiveCells = %d, want 2", got)
	}
}

func TestWeekMatrixAddHourOfWeek(t *testing.T) {
	var m WeekMatrix
	m.AddHourOfWeek(0, 1)       // Monday hour 0
	m.AddHourOfWeek(24+5, 2)    // Tuesday hour 5
	m.AddHourOfWeek(6*24+23, 4) // Sunday hour 23
	if m.At(0, 0) != 1 || m.At(5, 1) != 2 || m.At(23, 6) != 4 {
		t.Fatalf("unexpected matrix contents: %v %v %v", m.At(0, 0), m.At(5, 1), m.At(23, 6))
	}
}

func TestWeekMatrixMerge(t *testing.T) {
	var a, b WeekMatrix
	a.Set(1, 1, 2)
	b.Set(1, 1, 3)
	b.Set(2, 2, 4)
	a.Merge(&b)
	if a.At(1, 1) != 5 || a.At(2, 2) != 4 {
		t.Fatalf("merge failed: %v %v", a.At(1, 1), a.At(2, 2))
	}
}

func TestWeekMatrixPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	var m WeekMatrix
	m.At(24, 0)
}

func TestWeekVectorMax(t *testing.T) {
	var w WeekVector
	for d := 0; d < 7; d++ {
		w[d*BinsPerDay+10] = 7
	}
	if w.Max() != 7 {
		t.Fatalf("Max = %v", w.Max())
	}
}
