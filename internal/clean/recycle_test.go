package clean

import (
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"cellcars/internal/cdr"
	"cellcars/internal/radio"
	"cellcars/internal/simtime"
	"cellcars/internal/synth"
)

// randomStream returns n records over a few cars, per-car ordered, with
// gaps either side of AggregateGap and overlapping durations, so
// sessions of every length from one span to past the last pooled class
// open and close all through it.
func randomStream(rng *rand.Rand, n int) []cdr.Record {
	const cars = 24
	var at [cars]time.Duration
	out := make([]cdr.Record, 0, n)
	for i := 0; i < n; i++ {
		car := rng.IntN(cars)
		step := time.Duration(rng.IntN(20)) * time.Second
		if rng.IntN(1+car) == 0 { // low cars close often, high cars run long
			step += AggregateGap + time.Duration(1+rng.IntN(600))*time.Second
		}
		at[car] += step
		out = append(out, rec(cdr.CarID(car), radio.BSID(rng.IntN(9)), at[car], time.Duration(rng.IntN(40))*time.Second))
	}
	return out
}

func cloneSession(s *Session) Session {
	c := *s
	c.Spans = slices.Clone(s.Spans)
	return c
}

func sameSession(a, b *Session) bool {
	return a.Car == b.Car && a.Start == b.Start && a.End == b.End &&
		a.Connected == b.Connected && slices.Equal(a.Spans, b.Spans)
}

// TestReleaseChangesNothing runs random streams through a sessionizer
// whose caller releases every closed session and one whose caller never
// does: same closed sessions in the same order, same Flush. Before each
// Release the closed session's whole span array is scribbled over, so an
// open session still sharing memory with it would come out different.
func TestReleaseChangesNothing(t *testing.T) {
	junk := CellSpan{Cell: radio.MakeCellKey(999, 2, radio.C1), Start: t0.Add(-time.Hour).UnixNano(), Duration: -1}
	for seed := uint64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewPCG(seed, 21))
		keep, recycle := NewSessionizer(AggregateGap), NewSessionizer(AggregateGap)
		for i, r := range randomStream(rng, 4000) {
			want, got := keep.Add(r), recycle.Add(r)
			if (want == nil) != (got == nil) {
				t.Fatalf("seed %d record %d: closed %v without release, %v with", seed, i, want != nil, got != nil)
			}
			if want == nil {
				continue
			}
			if !sameSession(want, got) {
				t.Fatalf("seed %d record %d: closed\n %+v\nwithout release,\n %+v\nwith", seed, i, *want, *got)
			}
			full := got.Spans[:cap(got.Spans)]
			for j := range full {
				full[j] = junk
			}
			recycle.Release(got)
		}
		want, got := keep.Flush(), recycle.Flush()
		if len(want) != len(got) {
			t.Fatalf("seed %d: Flush returned %d sessions without release, %d with", seed, len(want), len(got))
		}
		for i := range want {
			if !sameSession(&want[i], &got[i]) {
				t.Fatalf("seed %d: flushed\n %+v\nwithout release,\n %+v\nwith", seed, want[i], got[i])
			}
		}
	}
}

// steadyRound feeds every car one session's worth of records — 1 to 16
// spans, rotating with the round — and a first record of the next
// session that closes it, releasing what closes.
func steadyRound(z *Sessionizer, round int) {
	const cars = 64
	base := time.Duration(round) * time.Hour
	for car := 0; car < cars; car++ {
		spans := 1 + (car+round)%16
		for i := 0; i < spans; i++ {
			if s := z.Add(rec(cdr.CarID(car), radio.BSID(i), base+time.Duration(i)*time.Second, time.Second)); s != nil {
				z.Release(s)
			}
		}
	}
}

// TestSessionizerSteadyStateAllocatesNothing: once the free lists have
// seen one full rotation of session lengths, Add and Release reuse what
// they hold.
func TestSessionizerSteadyStateAllocatesNothing(t *testing.T) {
	z := NewSessionizer(AggregateGap)
	round := 0
	for ; round < 64; round++ {
		steadyRound(z, round)
	}
	allocs := testing.AllocsPerRun(32, func() {
		steadyRound(z, round)
		round++
	})
	if allocs != 0 {
		t.Fatalf("steady-state Add+Release allocates %.1f objects per 64-car round, want 0", allocs)
	}
}

// TestOddCapacitySpansAreNotPooled: sessions that enter through Put and
// RestoreOpen bring span arrays of whatever capacity their maker chose.
// Growing and releasing them must work, and must not file an array
// under a class whose capacity it does not have.
func TestOddCapacitySpansAreNotPooled(t *testing.T) {
	odd := func(car cdr.CarID, n, capacity int) *Session {
		s := &Session{Car: car, Start: t0.UnixNano(), Spans: make([]CellSpan, 0, capacity)}
		for i := 0; i < n; i++ {
			r := rec(car, radio.BSID(i), time.Duration(i)*time.Second, time.Second)
			s.Spans = append(s.Spans, CellSpan{Cell: r.Cell, Start: r.Start.UnixNano(), Duration: r.Duration})
			s.Connected += r.Duration
			s.End = r.End().UnixNano()
		}
		return s
	}
	z := NewSessionizer(AggregateGap)
	z.Put(odd(1, 3, 3))   // full, capacity not a power of two
	z.Put(odd(2, 5, 7))   // room left, capacity not a power of two
	z.Put(odd(3, 40, 40)) // past the last class
	restored := []*Session{odd(4, 6, 6), odd(5, 64, 64)}
	for _, s := range z.Flush() {
		restored = append(restored, &s)
	}
	z.RestoreOpen(restored)
	for car := cdr.CarID(1); car <= 5; car++ {
		before, end := len(z.Open(car).Spans), time.Duration(z.Open(car).End-t0.UnixNano())
		for i := 0; i < 3; i++ { // within the gap: grows each session
			if s := z.Add(rec(car, 7, end+time.Duration(i)*time.Second, time.Second)); s != nil {
				t.Fatalf("car %d: in-gap record closed a session", car)
			}
		}
		if got := len(z.Open(car).Spans); got != before+3 {
			t.Fatalf("car %d: %d spans after 3 more records on %d", car, got, before)
		}
		s := z.Add(rec(car, 8, time.Hour, time.Second)) // closes it
		if s == nil || len(s.Spans) != before+3 {
			t.Fatalf("car %d: closed session %+v, want %d spans", car, s, before+3)
		}
		z.Release(s)
	}
	z.Release(z.Take(1))
	for class, free := range z.freeSpans {
		for _, spans := range free {
			if cap(spans) != 1<<class || len(spans) != 0 {
				t.Fatalf("class %d holds an array of len %d cap %d", class, len(spans), cap(spans))
			}
		}
	}
	for _, s := range z.freeSessions {
		if s.Spans != nil || s.Car != 0 {
			t.Fatalf("free session not cleared: %+v", *s)
		}
	}
}

// fleetRecords is a small generated fleet's 14-day stream, the
// session-length mix the capacity classes were chosen on.
func fleetRecords(tb testing.TB, cars int) []cdr.Record {
	cfg := synth.DefaultConfig(cars)
	cfg.Period = simtime.NewPeriod(t0, 14)
	records, _, err := synth.NewWorld(cfg).GenerateAll()
	if err != nil {
		tb.Fatal(err)
	}
	return records
}

// TestOpenSessionsHoldNoSpareCapacity is the guard on the free list's
// shape: recycling must not converge open sessions onto the capacity of
// the long sessions that were closed before them (recycling a closed
// session's array together with its struct doubled live state). An
// open session holds the class its own length needs, so summed capacity
// stays under twice summed length, give or take one last-class array.
func TestOpenSessionsHoldNoSpareCapacity(t *testing.T) {
	for _, gap := range []time.Duration{AggregateGap, MobilityGap} {
		z := NewSessionizer(gap)
		for _, r := range fleetRecords(t, 300) {
			if s := z.Add(r); s != nil {
				z.Release(s)
			}
		}
		var length, capacity int
		for _, car := range z.OpenCars() {
			s := z.Open(car)
			length += len(s.Spans)
			capacity += cap(s.Spans)
		}
		if length == 0 || capacity > 2*length+1<<(spanClasses-1) {
			t.Fatalf("gap %v: open sessions hold capacity for %d spans on %d in use", gap, capacity, length)
		}
	}
}

// BenchmarkSessionizerAdd is the sessionizer's share of the engine's
// Add path on the benchmark's fleet: every record through Add, every
// closed session released, as the handover and usage stages do.
func BenchmarkSessionizerAdd(b *testing.B) {
	records := fleetRecords(b, 1600)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z := NewSessionizer(AggregateGap)
		for _, r := range records {
			if s := z.Add(r); s != nil {
				z.Release(s)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(records)), "ns/rec")
}
