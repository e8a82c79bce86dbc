package analysis

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"cellcars/internal/clean"
	"cellcars/internal/simtime"
)

// markSessionHoursReference is markSessionHours as it was when it walked
// time.Time hours through simtime.HourOfWeek, kept verbatim as the
// arbiter of the integer one.
func markSessionHoursReference(hours *tally, s *clean.Session, tzOffsetSeconds int) {
	start := time.Unix(0, s.Start).UTC()
	end := time.Unix(0, s.End).UTC()
	if end.Sub(start) > 7*24*time.Hour {
		end = start.Add(7 * 24 * time.Hour) // cap runaway stuck sessions
	}
	// Walk hour boundaries so each touched hour is marked exactly
	// once per session; the truncated first step guarantees the
	// starting hour is included even for sub-hour sessions.
	var seen [(7*simtime.HoursPerDay + 63) / 64]uint64
	for t := start.Truncate(time.Hour); t.Before(end); t = t.Add(time.Hour) {
		how := simtime.HourOfWeek(t, tzOffsetSeconds)
		if w, bit := how/64, uint64(1)<<(how%64); seen[w]&bit == 0 {
			seen[w] |= bit
			hours.add(how, 1)
		}
	}
}

// hourOffsets are the time-zone offsets the arbiter runs every case
// under: the extremes in use, and the half- and quarter-hour zones.
var hourOffsets = []int{-12 * 3600, -3*3600 - 1800, -5 * 3600, 0, 3600, 5*3600 + 1800, 5*3600 + 2700, 14 * 3600}

// checkSessionHours marks one session both ways under every offset
// given and fails on the first difference.
func checkSessionHours(t *testing.T, name string, start, end int64, offsets []int) {
	t.Helper()
	for _, tz := range offsets {
		var got, want tally
		markSessionHours(&got, start, end, tz)
		markSessionHoursReference(&want, &clean.Session{Start: start, End: end}, tz)
		if !slices.Equal(got, want) {
			t.Fatalf("%s (%s .. %s, offset %d s): hours %v, the time.Time walk marks %v", name,
				time.Unix(0, start).UTC().Format(time.RFC3339Nano), time.Unix(0, end).UTC().Format(time.RFC3339Nano), tz, got, want)
		}
	}
}

// TestSessionHoursMatchReference: the integer hour-of-week walk marks
// the hours the time.Time walk marked, on the boundary cases — starts
// before 1970, a week boundary crossed, ends exactly on an hour,
// zero-length and reversed sessions, sessions capped at seven days, the
// ends of the instants Unix nanoseconds hold — and on random sessions.
func TestSessionHoursMatchReference(t *testing.T) {
	at := func(s string) int64 {
		tm, err := time.Parse(time.RFC3339, s)
		if err != nil {
			t.Fatal(err)
		}
		return tm.UnixNano()
	}
	const h, m, s = int64(time.Hour), int64(time.Minute), int64(time.Second)
	monday := at("2017-01-02T00:00:00Z")
	for _, tc := range []struct {
		name       string
		start, end int64
	}{
		{"inside one hour", monday + 10*m, monday + 20*m},
		{"across two hours", monday + 50*m, monday + 70*m},
		{"end exactly on an hour", monday + 10*m, monday + h},
		{"start and end on hours", monday + 3*h, monday + 5*h},
		{"zero length on an hour", monday + 2*h, monday + 2*h},
		{"zero length inside an hour", monday + 2*h + 7*s, monday + 2*h + 7*s},
		{"end a nanosecond into an hour", monday + 10*m, monday + h + 1},
		{"end before start", monday + 40*m, monday + 20*m},
		{"end before the start's hour", monday + 40*m, monday - 20*m},
		{"across the week boundary", monday - 90*m, monday + 70*m},
		{"Sunday night to Monday, local", monday - 6*h, monday + 6*h},
		{"exactly seven days", monday + 15*m, monday + 15*m + 168*h},
		{"seven days and a nanosecond", monday + 15*m, monday + 15*m + 168*h + 1},
		{"ten days", monday + 15*m, monday + 240*h},
		{"seven days from an hour", monday, monday + 168*h},
		{"before 1970", at("1965-06-30T23:40:00Z"), at("1965-07-01T02:05:00Z")},
		{"across the epoch", -90 * m, 30 * m},
		{"on the epoch", 0, h},
		{"one nanosecond before the epoch", -1, 0},
		{"before 1970, ten days", at("1969-12-25T10:10:10Z"), at("1970-01-04T00:00:00Z")},
		{"first study instant", at("1677-09-22T00:00:00Z"), at("1677-09-22T03:00:00Z")},
		{"saturated end", at("2262-04-10T20:30:00Z"), math.MaxInt64},
		{"a week from the saturated end", at("2262-04-01T20:30:00Z"), math.MaxInt64},
	} {
		checkSessionHours(t, tc.name, tc.start, tc.end, hourOffsets)
	}

	rng := rand.New(rand.NewPCG(34, 168))
	lo, hi := at("1677-09-22T00:00:00Z"), at("2262-04-10T00:00:00Z")
	for i := 0; i < 20000; i++ {
		start := lo + int64(rng.Uint64N(uint64(hi-lo)))
		if i%4 == 0 {
			start -= start % h // on an hour
		}
		var length int64
		switch i % 5 {
		case 0:
			length = int64(rng.Uint64N(uint64(2 * h)))
		case 1:
			length = int64(rng.Uint64N(48)) * h // whole hours
		case 2:
			length = int64(rng.Uint64N(uint64(9 * 24 * h)))
		case 3:
			length = -int64(rng.Uint64N(uint64(2 * h)))
		}
		end := start + length
		if length > 0 && end < start {
			end = math.MaxInt64
		}
		tz := int(rng.Int64N(26*60+1)-12*60) * 60 // any whole minute from −12 h to +14 h
		checkSessionHours(t, fmt.Sprintf("random session %d", i), start, end, []int{tz, hourOffsets[i%len(hourOffsets)]})
	}
}
