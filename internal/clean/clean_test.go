package clean

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
	"time"

	"cellcars/internal/cdr"
	"cellcars/internal/radio"
)

var t0 = time.Date(2017, 1, 2, 0, 0, 0, 0, time.UTC)

func rec(car cdr.CarID, bs radio.BSID, start, dur time.Duration) cdr.Record {
	return cdr.Record{
		Car:      car,
		Cell:     radio.MakeCellKey(bs, 0, radio.C3),
		Start:    t0.Add(start),
		Duration: dur,
	}
}

func TestRemoveGhosts(t *testing.T) {
	in := []cdr.Record{
		rec(1, 1, 0, time.Hour), // ghost
		rec(1, 1, 2*time.Hour, 105*time.Second),
		rec(1, 1, 3*time.Hour, time.Hour+time.Second), // not exactly 1h: kept
	}
	out, err := cdr.ReadAll(RemoveGhosts(cdr.NewSliceReader(in)))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("kept %d records, want 2", len(out))
	}
	for _, r := range out {
		if r.Duration == GhostDuration {
			t.Fatal("ghost survived")
		}
	}
}

func TestSessionizerConcatenatesWithinGap(t *testing.T) {
	z := NewSessionizer(30 * time.Second)
	// Three records 20 s apart: one session.
	var closed *Session
	for i, r := range []cdr.Record{
		rec(1, 1, 0, 60*time.Second),
		rec(1, 2, 80*time.Second, 60*time.Second),  // gap 20 s
		rec(1, 3, 160*time.Second, 40*time.Second), // gap 20 s
	} {
		if closed = z.Add(r); closed != nil {
			t.Fatalf("record %d closed a session early", i)
		}
	}
	sessions := z.Flush()
	if len(sessions) != 1 {
		t.Fatalf("sessions = %d", len(sessions))
	}
	s := sessions[0]
	if len(s.Spans) != 3 {
		t.Fatalf("spans = %d", len(s.Spans))
	}
	if s.Connected != 160*time.Second {
		t.Fatalf("connected = %v", s.Connected)
	}
	if d := time.Duration(s.End - s.Start); d != 200*time.Second {
		t.Fatalf("duration = %v", d)
	}
}

func TestSessionizerSplitsBeyondGap(t *testing.T) {
	z := NewSessionizer(30 * time.Second)
	if s := z.Add(rec(1, 1, 0, 60*time.Second)); s != nil {
		t.Fatal("first record closed a session")
	}
	// 31 s gap: new session, old one returned.
	s := z.Add(rec(1, 2, 91*time.Second, 60*time.Second))
	if s == nil {
		t.Fatal("session not closed across a 31 s gap")
	}
	if len(s.Spans) != 1 || s.Spans[0].Cell.BS() != 1 {
		t.Fatalf("closed session wrong: %+v", s)
	}
	rest := z.Flush()
	if len(rest) != 1 || rest[0].Spans[0].Cell.BS() != 2 {
		t.Fatalf("open tail wrong: %+v", rest)
	}
}

func TestSessionizerGapMeasuredFromSessionEnd(t *testing.T) {
	z := NewSessionizer(30 * time.Second)
	// Overlapping records extend the session end; a record 25 s after
	// the *extended* end still concatenates.
	z.Add(rec(1, 1, 0, 300*time.Second))
	z.Add(rec(1, 2, 60*time.Second, 60*time.Second)) // inside first record
	if s := z.Add(rec(1, 3, 320*time.Second, 30*time.Second)); s != nil {
		t.Fatal("record 20 s after session end should concatenate")
	}
	sessions := z.Flush()
	if len(sessions) != 1 || len(sessions[0].Spans) != 3 {
		t.Fatalf("sessions: %+v", sessions)
	}
}

func TestSessionizerPerCarIsolation(t *testing.T) {
	z := NewSessionizer(30 * time.Second)
	z.Add(rec(1, 1, 0, 60*time.Second))
	z.Add(rec(2, 5, 10*time.Second, 60*time.Second))
	z.Add(rec(1, 2, 70*time.Second, 60*time.Second))
	sessions := z.Flush()
	if len(sessions) != 2 {
		t.Fatalf("sessions = %d, want 2", len(sessions))
	}
	if sessions[0].Car != 1 || sessions[1].Car != 2 {
		t.Fatalf("flush order by car: %v %v", sessions[0].Car, sessions[1].Car)
	}
	if len(sessions[0].Spans) != 2 || len(sessions[1].Spans) != 1 {
		t.Fatal("per-car spans wrong")
	}
}

func TestSessionsHelper(t *testing.T) {
	in := []cdr.Record{
		rec(1, 1, 0, 60*time.Second),
		rec(1, 2, 70*time.Second, 60*time.Second),
		rec(1, 3, 20*time.Minute, 60*time.Second),
		rec(2, 4, 0, 30*time.Second),
	}
	cdr.Sort(in)
	sessions, err := Sessions(cdr.NewSliceReader(in), 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(sessions) != 3 {
		t.Fatalf("sessions = %d, want 3", len(sessions))
	}
}

func TestSessionHandovers(t *testing.T) {
	s := Session{
		Spans: []CellSpan{
			{Cell: radio.MakeCellKey(1, 0, radio.C3)},
			{Cell: radio.MakeCellKey(2, 0, radio.C3)}, // inter-BS
			{Cell: radio.MakeCellKey(2, 1, radio.C3)}, // inter-sector
			{Cell: radio.MakeCellKey(2, 1, radio.C4)}, // inter-carrier
			{Cell: radio.MakeCellKey(2, 1, radio.C2)}, // inter-tech (C4 4G -> C2 3G)
			{Cell: radio.MakeCellKey(2, 1, radio.C2)}, // same cell: none
		},
	}
	h := HandoversByKind(s.Spans)
	if h[radio.HandoverInterBS] != 1 || h[radio.HandoverInterSector] != 1 ||
		h[radio.HandoverInterCarrier] != 1 || h[radio.HandoverInterTech] != 1 ||
		h[radio.HandoverNone] != 0 {
		t.Fatalf("handover counts: %v", h)
	}
}

func TestNewSessionizerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSessionizer(0)
}

// TestSessionizerConservesRecordsProperty: every record lands in
// exactly one session, and total connected time is conserved.
func TestSessionizerConservesRecordsProperty(t *testing.T) {
	f := func(starts []uint16, durs []uint8, cars []uint8) bool {
		n := len(starts)
		if len(durs) < n {
			n = len(durs)
		}
		if len(cars) < n {
			n = len(cars)
		}
		records := make([]cdr.Record, 0, n)
		var totalDur time.Duration
		for i := 0; i < n; i++ {
			r := rec(cdr.CarID(cars[i]%5), radio.BSID(i%7),
				time.Duration(starts[i])*time.Second,
				time.Duration(durs[i])*time.Second+time.Second)
			records = append(records, r)
			totalDur += r.Duration
		}
		cdr.Sort(records)
		sessions, err := Sessions(cdr.NewSliceReader(records), AggregateGap)
		if err != nil {
			return false
		}
		var gotRecords int
		var gotDur time.Duration
		for _, s := range sessions {
			gotRecords += len(s.Spans)
			gotDur += s.Connected
			if s.End < s.Start {
				return false
			}
		}
		return gotRecords == n && gotDur == totalDur
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestSessionizerGapInvariantProperty: within a session, no span starts
// more than gap after the running end of the session so far.
func TestSessionizerGapInvariantProperty(t *testing.T) {
	f := func(starts []uint16, cars []uint8) bool {
		n := len(starts)
		if len(cars) < n {
			n = len(cars)
		}
		records := make([]cdr.Record, 0, n)
		for i := 0; i < n; i++ {
			records = append(records, rec(cdr.CarID(cars[i]%3), 1,
				time.Duration(starts[i])*time.Second, 45*time.Second))
		}
		cdr.Sort(records)
		sessions, err := Sessions(cdr.NewSliceReader(records), AggregateGap)
		if err != nil {
			return false
		}
		for _, s := range sessions {
			end := s.Spans[0].End()
			for _, sp := range s.Spans[1:] {
				if time.Duration(sp.Start-end) > AggregateGap {
					return false
				}
				end = max(end, sp.End())
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestSortSessionsMatchesInsertionOrder pins sortSessions against the
// insertion sort it replaced, on the shuffled input its callers really
// feed it (map iteration order, one session per car).
func TestSortSessionsMatchesInsertionOrder(t *testing.T) {
	insertion := func(s []Session) {
		less := func(a, b *Session) bool {
			if a.Car != b.Car {
				return a.Car < b.Car
			}
			return a.Start < b.Start
		}
		for i := 1; i < len(s); i++ {
			for j := i; j > 0 && less(&s[j], &s[j-1]); j-- {
				s[j], s[j-1] = s[j-1], s[j]
			}
		}
	}
	rng := rand.New(rand.NewPCG(3, 9))
	for _, n := range []int{0, 1, 2, 17, 500} {
		got := make([]Session, n)
		for i := range got {
			got[i] = Session{Car: cdr.CarID(rng.Uint64()), Start: t0.Add(time.Duration(rng.Uint64N(1e6)) * time.Second).UnixNano()}
		}
		rng.Shuffle(n, func(i, j int) { got[i], got[j] = got[j], got[i] })
		want := append([]Session(nil), got...)
		insertion(want)
		sortSessions(got)
		for i := range got {
			if got[i].Car != want[i].Car || got[i].Start != want[i].Start {
				t.Fatalf("n=%d: position %d is car %d, insertion sort put car %d there", n, i, got[i].Car, want[i].Car)
			}
		}
	}

	// The real path: Flush over a map-ordered sessionizer.
	z := NewSessionizer(AggregateGap)
	for car := 300; car > 0; car-- {
		z.Add(rec(cdr.CarID(car*7919%1000), 1, time.Duration(car)*time.Minute, time.Second))
	}
	// 7919 is prime to 1000, so the 300 cars are distinct.
	flushed := z.Flush()
	if len(flushed) != 300 {
		t.Fatalf("Flush returned %d sessions of 300 cars", len(flushed))
	}
	for i := 1; i < len(flushed); i++ {
		if flushed[i-1].Car >= flushed[i].Car {
			t.Fatalf("Flush not ascending by car at %d", i)
		}
	}
}
