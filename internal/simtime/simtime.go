// Package simtime provides the time substrate for the connected-car
// measurement pipeline: the fixed study window, the 15-minute binning
// used for radio load and concurrency analyses, hour-of-week (24×7)
// matrices, and simple local-time handling for cars in different
// time zones.
//
// The paper analyzes a 90-day study period and aggregates most
// network-side measurements into 15-minute bins (96 per day, 672 per
// week). All library code takes explicit times; nothing reads the
// wall clock.
package simtime

import (
	"fmt"
	"math"
	"time"
)

// BinWidth is the width of a load/concurrency time bin. The paper uses
// 15-minute bins for PRB utilization and car concurrency.
const BinWidth = 15 * time.Minute

// Bin layout constants derived from BinWidth.
const (
	BinsPerHour = int(time.Hour / BinWidth) // 4
	BinsPerDay  = 24 * BinsPerHour          // 96
	BinsPerWeek = 7 * BinsPerDay            // 672
	HoursPerDay = 24                        //
)

// DefaultStudyDays is the length of the paper's measurement window.
const DefaultStudyDays = 90

// Period is a fixed study window starting at midnight UTC of Start and
// spanning Days whole days. The zero Period is not valid; construct one
// with NewPeriod.
type Period struct {
	start time.Time
	// startSec is start in Unix seconds, what DayIndex compares against.
	startSec int64
	days     int
}

const secondsPerDay = 24 * 60 * 60

// The instants time.Time.UnixNano is defined for. The engine holds
// session clocks and writes snapshots in Unix nanoseconds, so a study
// period must lie between them.
var (
	minNano = time.Unix(0, math.MinInt64).UTC()
	maxNano = time.Unix(0, math.MaxInt64).UTC()
)

// CheckPeriod reports why NewPeriod(start, days) would panic: a
// non-positive length, a period longer than a time.Duration holds, or
// one reaching outside the instants Unix nanoseconds can hold
// (1677-09-21 to 2262-04-11), where every session clock and snapshot
// timestamp would wrap. A binary checks a user-supplied study with it
// before building the period.
func CheckPeriod(start time.Time, days int) error {
	if days <= 0 {
		return fmt.Errorf("simtime: non-positive study length %d", days)
	}
	if int64(days) > math.MaxInt64/int64(24*time.Hour) {
		return fmt.Errorf("simtime: study length %d days exceeds time.Duration's range", days)
	}
	// The period's last instant, a nanosecond before its end, must not
	// pass maxNano: in whole seconds, the end must not pass maxNano's.
	mid := midnight(start)
	if mid.Before(minNano) || int64(days) > (maxNano.Unix()-mid.Unix())/secondsPerDay {
		return fmt.Errorf("simtime: study %s+%dd reaches outside %s..%s, the instants Unix nanoseconds hold",
			mid.Format("2006-01-02"), days, minNano.Format(time.RFC3339), maxNano.Format(time.RFC3339))
	}
	return nil
}

func midnight(t time.Time) time.Time {
	u := t.UTC()
	return time.Date(u.Year(), u.Month(), u.Day(), 0, 0, 0, 0, time.UTC)
}

// NewPeriod returns a study period of the given number of days starting
// at midnight UTC on the day containing start. It panics where
// CheckPeriod fails — a non-positive length or a period outside
// 1677–2262 — mirroring the contract of time.Duration arithmetic rather
// than returning an error: a program hands it a checked study window,
// never data.
func NewPeriod(start time.Time, days int) Period {
	if err := CheckPeriod(start, days); err != nil {
		panic(err.Error())
	}
	mid := midnight(start)
	return Period{start: mid, startSec: mid.Unix(), days: days}
}

// DefaultPeriod returns the 90-day study window used throughout the
// reproduction. The concrete start date is arbitrary (the paper only
// says "90-day period in 2017"); we pin it so that every run is
// deterministic. January 2 2017 is a Monday, which makes weekday
// indices easy to reason about in tests.
func DefaultPeriod() Period {
	return NewPeriod(time.Date(2017, time.January, 2, 0, 0, 0, 0, time.UTC), DefaultStudyDays)
}

// Start returns the first instant of the period (midnight UTC).
func (p Period) Start() time.Time { return p.start }

// End returns the first instant after the period.
func (p Period) End() time.Time { return p.start.Add(p.Duration()) }

// Days returns the number of whole days in the period.
func (p Period) Days() int { return p.days }

// Duration returns the total length of the period. The period starts
// at UTC midnight and UTC has no clock changes, so it is exactly Days
// 24-hour days: Contains and DayIndex run per record, and calendar
// arithmetic (AddDate) does not belong there. CheckPeriod keeps the
// length within time.Duration's ~292-year range.
func (p Period) Duration() time.Duration { return time.Duration(p.days) * 24 * time.Hour }

// Seconds returns the total length of the period in seconds.
func (p Period) Seconds() int64 { return int64(p.Duration() / time.Second) }

// Contains reports whether t falls inside the period (start inclusive,
// end exclusive).
func (p Period) Contains(t time.Time) bool {
	// Sub saturates for instants more than ~292 years away, which keeps
	// them on the correct side of both comparisons.
	d := t.Sub(p.start)
	return d >= 0 && d < p.Duration()
}

// Clamp trims the interval [t, t+d) to the period and returns the
// clamped start and duration. The returned duration is zero when the
// interval does not overlap the period.
func (p Period) Clamp(t time.Time, d time.Duration) (time.Time, time.Duration) {
	if d < 0 {
		d = 0
	}
	end := t.Add(d)
	if t.Before(p.start) {
		t = p.start
	}
	if end.After(p.End()) {
		end = p.End()
	}
	if !end.After(t) {
		return t, 0
	}
	return t, end.Sub(t)
}

// DayIndex returns the zero-based day of the period containing t, or
// -1 when t is outside the period. It runs for every record several
// times over, so it is integer seconds: t.Unix() is t's second rounded
// down, also before 1970, and the period's edges are whole seconds, so
// comparing and dividing seconds is exact for any sub-second t. The
// bounds are compared before anything is subtracted, so no t overflows
// it, without the Add and Equal time.Time.Sub checks its own overflow
// with.
func (p Period) DayIndex(t time.Time) int {
	sec := t.Unix()
	if sec < p.startSec || sec >= p.startSec+int64(p.days)*secondsPerDay {
		return -1
	}
	return int((sec - p.startSec) / secondsPerDay)
}

// DayStart returns the first instant of the zero-based day index. It
// panics when the index is out of range.
func (p Period) DayStart(day int) time.Time {
	if day < 0 || day >= p.days {
		panic(fmt.Sprintf("simtime: day index %d out of range [0,%d)", day, p.days))
	}
	return p.start.AddDate(0, 0, day)
}

// Weekday returns the weekday of the zero-based day index.
func (p Period) Weekday(day int) time.Weekday {
	return p.DayStart(day).Weekday()
}

// NumBins returns the number of 15-minute bins in the whole period.
func (p Period) NumBins() int { return p.days * BinsPerDay }

// BinIndex returns the zero-based 15-minute bin containing t, or -1
// when t is outside the period.
func (p Period) BinIndex(t time.Time) int {
	if !p.Contains(t) {
		return -1
	}
	return int(t.Sub(p.start) / BinWidth)
}

// BinStart returns the first instant of the zero-based bin index. It
// panics when the index is out of range.
func (p Period) BinStart(bin int) time.Time {
	if bin < 0 || bin >= p.NumBins() {
		panic(fmt.Sprintf("simtime: bin index %d out of range [0,%d)", bin, p.NumBins()))
	}
	return p.start.Add(time.Duration(bin) * BinWidth)
}

// BinRange returns the half-open range of bin indices overlapped by the
// interval [t, t+d). Both bounds are clamped to the period; when the
// interval does not overlap the period the returned range is empty
// (first >= last).
func (p Period) BinRange(t time.Time, d time.Duration) (first, last int) {
	t, d = p.Clamp(t, d)
	if d <= 0 {
		return 0, 0
	}
	first = int(t.Sub(p.start) / BinWidth)
	end := t.Add(d)
	last = int((end.Sub(p.start) + BinWidth - 1) / BinWidth)
	if last > p.NumBins() {
		last = p.NumBins()
	}
	return first, last
}

// OverlapWithBin returns how much of the interval [t, t+d) falls inside
// the given bin.
func (p Period) OverlapWithBin(bin int, t time.Time, d time.Duration) time.Duration {
	bs := p.BinStart(bin)
	be := bs.Add(BinWidth)
	s, e := t, t.Add(d)
	if s.Before(bs) {
		s = bs
	}
	if e.After(be) {
		e = be
	}
	if !e.After(s) {
		return 0
	}
	return e.Sub(s)
}

// HourOfWeek maps an instant to its hour-of-week in [0, 168) with the
// week starting on Monday, using the supplied fixed offset from UTC in
// seconds.
func HourOfWeek(t time.Time, utcOffsetSeconds int) int {
	lt := t.Add(time.Duration(utcOffsetSeconds) * time.Second)
	wd := (int(lt.Weekday()) + 6) % 7
	return wd*24 + lt.Hour()
}
