package clean

import (
	"cmp"
	"encoding/binary"
	"math"
	"slices"
	"testing"
	"time"

	"cellcars/internal/cdr"
	"cellcars/internal/radio"
)

// refSessionizer is the Sessionizer as it was while sessions held
// time.Time — every decision made by time.Time.Sub, After and Add — kept
// verbatim, bar the names and the free lists both have since shed, as
// the arbiter of the Unix-nanosecond one in
// FuzzSessionizerMatchesReference.
type refSessionizer struct {
	gap  time.Duration
	open map[cdr.CarID]*refSession
}

type refCellSpan struct {
	Cell     radio.CellKey
	Start    time.Time
	Duration time.Duration
}

type refSession struct {
	Car        cdr.CarID
	Start, End time.Time
	Connected  time.Duration
	Spans      []refCellSpan
}

func newRefSessionizer(gap time.Duration) *refSessionizer {
	if gap <= 0 {
		panic("clean: sessionizer gap must be positive")
	}
	return &refSessionizer{gap: gap, open: make(map[cdr.CarID]*refSession)}
}

func (z *refSessionizer) Add(rec cdr.Record) *refSession {
	cur := z.open[rec.Car]
	if cur == nil {
		cur = new(refSession)
		z.begin(cur, rec)
		z.open[rec.Car] = cur
		return nil
	}
	if rec.Start.Sub(cur.End) > z.gap {
		closed := new(refSession)
		*closed = *cur
		z.begin(cur, rec)
		return closed
	}
	cur.Spans = append(cur.Spans, refCellSpan{Cell: rec.Cell, Start: rec.Start, Duration: rec.Duration})
	cur.Connected += rec.Duration
	if rec.End().After(cur.End) {
		cur.End = rec.End()
	}
	return nil
}

func (z *refSessionizer) begin(s *refSession, rec cdr.Record) {
	*s = refSession{
		Car:       rec.Car,
		Start:     rec.Start,
		End:       rec.End(),
		Connected: rec.Duration,
		Spans:     []refCellSpan{{Cell: rec.Cell, Start: rec.Start, Duration: rec.Duration}},
	}
}

func (z *refSessionizer) Open(car cdr.CarID) *refSession { return z.open[car] }

// openOf is car's open session in z, or nil.
func openOf(z *Sessionizer, car cdr.CarID) *Session { return z.open[car] }

func (z *refSessionizer) Flush() []refSession {
	out := make([]refSession, 0, len(z.open))
	for _, s := range z.open {
		out = append(out, *s)
	}
	z.open = make(map[cdr.CarID]*refSession)
	slices.SortFunc(out, func(a, b refSession) int {
		if c := cmp.Compare(a.Car, b.Car); c != 0 {
			return c
		}
		return a.Start.Compare(b.Start)
	})
	return out
}

// unixNanoSat is t in Unix nanoseconds, saturated at the ends of the
// int64 range as CellSpan.End saturates.
func unixNanoSat(t time.Time) int64 {
	switch {
	case t.After(time.Unix(0, math.MaxInt64)):
		return math.MaxInt64
	case t.Before(time.Unix(0, math.MinInt64)):
		return math.MinInt64
	}
	return t.UnixNano()
}

// matchesRef reports whether s is ref on the Unix-nanosecond clock, an
// end past 2262 read as the clock's last instant.
func matchesRef(s *Session, ref *refSession) bool {
	if s == nil || ref == nil {
		return s == nil && ref == nil
	}
	if s.Car != ref.Car || s.Start != ref.Start.UnixNano() || s.End != unixNanoSat(ref.End) ||
		s.Connected != ref.Connected || len(s.Spans) != len(ref.Spans) {
		return false
	}
	for i, sp := range s.Spans {
		r := ref.Spans[i]
		if sp.Cell != r.Cell || sp.Start != r.Start.UnixNano() || sp.Duration != r.Duration {
			return false
		}
	}
	return true
}

// fuzzBases are the clocks a fuzzed stream starts from: just before the
// Unix epoch on a half second, well before it off any second, the
// study's own year, a few months inside either end of where UnixNano is
// defined, and an hour before its last instant, where a record's end
// passes it.
var fuzzBases = []time.Time{
	time.Date(1969, 12, 31, 23, 59, 59, 500_000_000, time.UTC),
	time.Date(1900, 1, 1, 0, 0, 0, 123_456_789, time.UTC),
	time.Date(2017, 1, 2, 0, 0, 0, 0, time.UTC),
	time.Date(1678, 1, 1, 0, 0, 0, 0, time.UTC),
	time.Date(2262, 1, 1, 0, 0, 0, 0, time.UTC),
	time.Unix(0, math.MaxInt64).Add(-time.Hour),
}

// fuzzRecords turns bytes into a per-car ordered record stream: the
// first byte picks the base clock, then four bytes a record — the car
// and how its start is placed in the first, a magnitude in the other
// three. A start lands exactly one of the two gaps after the car's
// latest end, a nanosecond either side of it, on that end, on the car's
// previous start, or a few nanoseconds to seconds after that start
// (overlapping or not); a duration is zero or that magnitude in
// nanoseconds, milliseconds or seconds. Records whose start leaves
// UnixNano's range are skipped — Add requires it — but an end may pass
// 2262.
func fuzzRecords(data []byte) []cdr.Record {
	if len(data) == 0 {
		return nil
	}
	base := fuzzBases[int(data[0])%len(fuzzBases)]
	limit := time.Unix(0, math.MaxInt64)
	var (
		prev, end [4]time.Time
		seen      [4]bool
		out       []cdr.Record
	)
	for data = data[1:]; len(data) >= 4; data = data[4:] {
		car, kind := int(data[0]&3), data[0]>>2
		m := int64(binary.BigEndian.Uint32(data) & 0xFFFFFF)
		start := base
		if seen[car] {
			switch kind % 8 {
			case 0:
				start = end[car].Add(AggregateGap)
			case 1:
				start = end[car].Add(AggregateGap + 1)
			case 2:
				start = end[car].Add(AggregateGap - 1)
			case 3:
				start = end[car].Add(MobilityGap)
			case 4:
				start = end[car].Add(MobilityGap + time.Duration(1-2*(m&1)))
			case 5:
				start = end[car]
			case 6:
				start = prev[car]
			case 7:
				start = prev[car].Add(time.Duration(m) << (m & 31))
			}
		}
		var dur time.Duration
		switch kind >> 3 & 3 {
		case 1:
			dur = time.Duration(m)
		case 2:
			dur = time.Duration(m) * time.Millisecond
		case 3:
			dur = time.Duration(m&0xFFFF) * time.Second
		}
		if start.After(limit) {
			continue
		}
		r := cdr.Record{Car: cdr.CarID(car), Cell: radio.MakeCellKey(radio.BSID(kind), 0, radio.C3), Start: start, Duration: dur}
		if !seen[car] || r.End().After(end[car]) {
			end[car] = r.End()
		}
		prev[car], seen[car] = start, true
		out = append(out, r)
	}
	return out
}

// FuzzSessionizerMatchesReference: for any per-car ordered stream —
// starts before 1970 and off whole seconds, ends past 2262, records
// overlapping, starts exactly a gap, a nanosecond either side of one, or
// nothing after the session's end — the Unix-nanosecond sessionizer
// closes the sessions the time.Time one closes, holds the same open
// session after every record and flushes the same remainder, under the
// aggregation gap and the mobility gap alike.
func FuzzSessionizerMatchesReference(f *testing.F) {
	f.Add([]byte{2, 0x00, 0, 0, 9, 0x08, 0, 0, 9, 0x48, 0, 0, 1, 0x44, 0, 0, 2, 0x09, 1, 0, 0, 0x1D, 0, 3, 0})
	f.Add([]byte{0, 0x10, 0, 0, 7, 0x14, 0, 0, 7, 0x18, 0, 1, 0, 0x1C, 0, 0, 0, 0x10, 0, 0, 3, 0x38, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{4, 0x18, 0, 0x10, 0, 0x1A, 0, 0x10, 0, 0x1F, 0, 0x20, 0, 0x5F, 0x80, 0, 1, 0x0C, 0, 0, 0, 0x0D, 0, 0, 0})
	f.Add([]byte{1, 0x08, 0, 0, 1, 0x05, 0, 0, 0, 0x19, 0, 0, 0, 0x1E, 0, 0, 5, 0x56, 0, 0, 0, 0x0E, 0, 0, 2})
	f.Add([]byte{5, 0x60, 0, 0x0E, 0x10, 0x7C, 0, 0, 0x10, 0x60, 0, 0, 1, 0x38, 0, 0, 9, 0x61, 0, 0xFF, 0xFF, 0x79, 0, 0, 2, 0x7D, 0, 0, 0x1F})
	f.Fuzz(func(t *testing.T, data []byte) {
		records := fuzzRecords(data)
		for _, gap := range []time.Duration{AggregateGap, MobilityGap} {
			z, ref := NewSessionizer(gap), newRefSessionizer(gap)
			for i, r := range records {
				got, want := z.Add(r), ref.Add(r)
				if !matchesRef(got, want) {
					t.Fatalf("gap %v record %d %+v: closed %+v, reference closed %+v", gap, i, r, got, want)
				}
				if !matchesRef(openOf(z, r.Car), ref.Open(r.Car)) {
					t.Fatalf("gap %v record %d %+v: open %+v, reference open %+v", gap, i, r, openOf(z, r.Car), ref.Open(r.Car))
				}
			}
			got, want := z.Flush(), ref.Flush()
			if len(got) != len(want) {
				t.Fatalf("gap %v: flushed %d sessions, reference %d", gap, len(got), len(want))
			}
			for i := range got {
				if !matchesRef(&got[i], &want[i]) {
					t.Fatalf("gap %v: flushed %+v, reference %+v", gap, got[i], want[i])
				}
			}
		}
	})
}

// TestCellSpanEndSaturates: a span's end is its start plus its duration
// wherever that sum is an int64 — up to the range's ends exactly — and
// the range's end it passed otherwise, in either direction: the instant
// the time.Time clock reaches, saturated.
func TestCellSpanEndSaturates(t *testing.T) {
	const maxD, minD = time.Duration(math.MaxInt64), time.Duration(math.MinInt64)
	for _, tc := range []struct {
		start int64
		dur   time.Duration
		want  int64
	}{
		{10, 5, 15},
		{-10, 0, -10},
		{math.MaxInt64, 0, math.MaxInt64},
		{math.MaxInt64 - 5, 5, math.MaxInt64},
		{math.MaxInt64 - 5, 6, math.MaxInt64},
		{1, maxD, math.MaxInt64},
		{-1, maxD, math.MaxInt64 - 1},
		{math.MaxInt64, maxD, math.MaxInt64},
		{math.MinInt64, maxD, -1},
		{math.MinInt64, 0, math.MinInt64},
		{math.MinInt64 + 5, -5, math.MinInt64},
		{math.MinInt64 + 5, -6, math.MinInt64},
		{0, minD, math.MinInt64},
		{-1, minD, math.MinInt64},
		{math.MinInt64, minD, math.MinInt64},
		{math.MaxInt64, minD, -1},
	} {
		sp := CellSpan{Start: tc.start, Duration: tc.dur}
		if got := sp.End(); got != tc.want {
			t.Errorf("start %d + %d: end %d, want %d", tc.start, int64(tc.dur), got, tc.want)
		}
		if ref := unixNanoSat(time.Unix(0, tc.start).Add(tc.dur)); ref != tc.want {
			t.Errorf("start %d + %d: the time.Time clock ends at %d, the table says %d", tc.start, int64(tc.dur), ref, tc.want)
		}
	}
}

// TestSessionizerPast2262: a record whose end passes 2262 is split from
// the session before it when it starts beyond the gap, and holds every
// record after it — up to one starting on the clock's last instant — as
// the time.Time sessionizer holds it: no start a record may have lies
// beyond the end that session keeps, saturated or not.
func TestSessionizerPast2262(t *testing.T) {
	limit := time.Unix(0, math.MaxInt64)
	rec := func(start time.Time, d time.Duration) cdr.Record {
		return cdr.Record{Car: 1, Cell: radio.MakeCellKey(3, 0, radio.C3), Start: start, Duration: d}
	}
	records := []cdr.Record{
		rec(limit.Add(-3*time.Hour), time.Hour),
		rec(limit.Add(-2*time.Hour+AggregateGap+1), 4*time.Hour), // past the aggregation gap, ends past 2262
		rec(limit.Add(-time.Hour), time.Second),
		rec(limit, 1e6*time.Second),
	}
	for _, tc := range []struct {
		gap    time.Duration
		closed int
	}{{AggregateGap, 1}, {MobilityGap, 0}} {
		z, ref := NewSessionizer(tc.gap), newRefSessionizer(tc.gap)
		closed := 0
		for i, r := range records {
			got, want := z.Add(r), ref.Add(r)
			if !matchesRef(got, want) {
				t.Fatalf("gap %v record %d: closed %+v, reference closed %+v", tc.gap, i, got, want)
			}
			if got != nil {
				closed++
			}
			if !matchesRef(openOf(z, 1), ref.Open(1)) {
				t.Fatalf("gap %v record %d: open %+v, reference open %+v", tc.gap, i, openOf(z, 1), ref.Open(1))
			}
		}
		got, want := z.Flush(), ref.Flush()
		if len(got) != 1 || len(want) != 1 || !matchesRef(&got[0], &want[0]) {
			t.Fatalf("gap %v: flushed %+v, reference %+v", tc.gap, got, want)
		}
		if closed != tc.closed || got[0].End != math.MaxInt64 {
			t.Errorf("gap %v: %d sessions closed and the last ends at %d, want %d and the clock's end", tc.gap, closed, got[0].End, tc.closed)
		}
	}
}
