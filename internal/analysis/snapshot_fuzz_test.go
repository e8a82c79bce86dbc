package analysis

import (
	"bytes"
	"errors"
	"io"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"cellcars/internal/cdr"
	"cellcars/internal/radio"
	"cellcars/internal/snapshot"
)

// fuzzSnapshotSeed builds one small but fully populated analysis
// snapshot for the fuzz corpus.
func fuzzSnapshotSeed() []byte {
	s := NewStreamingWithOptions(engineCtx(), RunOptions{BusyCells: engineBusyCells()})
	if err := s.AddAll(cdr.NewSliceReader(engineWorkload(80))); err != nil {
		panic(err)
	}
	var buf bytes.Buffer
	if err := s.SnapshotTo(&buf); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// withFrame returns seed with one stage frame written afresh by write.
func withFrame(seed []byte, stage string, write func(e *snapshot.Encoder)) []byte {
	r, err := snapshot.NewReader(bytes.NewReader(seed))
	if err != nil {
		panic(err)
	}
	var out bytes.Buffer
	w := snapshot.NewWriter(&out)
	for {
		name, payload, err := r.NextFrame()
		if err == io.EOF {
			break
		} else if err != nil {
			panic(err)
		}
		if name != "stage:"+stage {
			w.RawFrame(name, payload)
			continue
		}
		write(w.Begin(name))
		w.End()
	}
	if err := w.Close(); err != nil {
		panic(err)
	}
	return out.Bytes()
}

// withDerivedFrame returns seed with a frame of a stage derived from
// presence forged in after the connected frame: one that holds no car,
// as the stage wrote before snapshot version 5.
func withDerivedFrame(seed []byte, stage string) []byte {
	r, err := snapshot.NewReader(bytes.NewReader(seed))
	if err != nil {
		panic(err)
	}
	var out bytes.Buffer
	w := snapshot.NewWriter(&out)
	for {
		name, payload, err := r.NextFrame()
		if err == io.EOF {
			break
		} else if err != nil {
			panic(err)
		}
		w.RawFrame(name, payload)
		if name == "stage:connected" {
			w.Begin("stage:" + stage).Uvarint(0)
			w.End()
		}
	}
	if err := w.Close(); err != nil {
		panic(err)
	}
	return out.Bytes()
}

// withPresence returns seed with a presence frame holding car 1 seen on
// the days of the bitmap words given, no cell, and the split entries
// given as (car, busy, total).
func withPresence(seed []byte, days []uint64, split [][3]int64) []byte {
	return withFrame(seed, "presence", func(e *snapshot.Encoder) {
		e.Uvarint(1) // cars
		e.Uvarint(1)
		e.Uvarint(uint64(len(days)))
		for _, w := range days {
			e.Uvarint(w)
		}
		e.Uvarint(0) // cells
		e.Uvarint(uint64(len(split)))
		for _, c := range split {
			e.Uvarint(uint64(c[0]))
			e.Varint(c[1])
			e.Varint(c[2])
		}
	})
}

// presenceRefusals are presence frames a restore must refuse, one per
// rule of its day bitmaps and its busy split.
func presenceRefusals(seed []byte) []struct {
	name string
	data []byte
} {
	return []struct {
		name string
		data []byte
	}{
		{"car seen on no day", withPresence(seed, nil, nil)},
		{"car with no binned time", withPresence(seed, []uint64{1}, [][3]int64{{1, 0, 0}})},
		{"negative busy time", withPresence(seed, []uint64{1}, [][3]int64{{1, -1, 5}})},
		{"busy time above the total", withPresence(seed, []uint64{1}, [][3]int64{{1, 6, 5}})},
		{"split cars descending", withPresence(seed, []uint64{1}, [][3]int64{{2, 1, 2}, {1, 1, 2}})},
	}
}

// TestPresenceFrameRefusals: each malformed presence frame is
// ErrBadSnapshot, and the same frame well formed restores to the facts it
// holds, which the derived stages finalize: a car in the split need not
// have a study day, and one with a day needs no binned time.
func TestPresenceFrameRefusals(t *testing.T) {
	seed := fuzzSnapshotSeed()
	p, err := ReadPartial(bytes.NewReader(withPresence(seed, []uint64{1 << 3}, [][3]int64{{2, 1, 4}})))
	if err != nil {
		t.Fatalf("well-formed presence frame refused: %v", err)
	}
	rep := p.Finalize()
	if rep.Presence.TotalCars != 1 || rep.DaysHist.Counts[0] != 1 || rep.Segments[0].RareNonBusy != 1 ||
		len(rep.Busy.FracByCar) != 1 || rep.Busy.FracByCar[2] != 0.25 {
		t.Errorf("well-formed presence frame restored to %d cars, days %v, Table 2 %+v, Figure 7 %v",
			rep.Presence.TotalCars, rep.DaysHist.Counts, rep.Segments, rep.Busy.FracByCar)
	}
	for _, tc := range presenceRefusals(seed) {
		if _, err := ReadPartial(bytes.NewReader(tc.data)); !errors.Is(err, snapshot.ErrBadSnapshot) {
			t.Errorf("%s: got %v, want ErrBadSnapshot", tc.name, err)
		}
	}
}

// writeTally writes a tally frame holding the (value, count) pairs given.
func writeTally(e *snapshot.Encoder, pairs [][2]uint64) {
	e.Uvarint(uint64(len(pairs)))
	for _, p := range pairs {
		e.Uvarint(p[0])
		e.Uvarint(p[1])
	}
}

// withDurations returns seed with its durations frame written afresh:
// the (second, count) pairs given, then n, and sums that agree with n.
func withDurations(seed []byte, pairs [][2]uint64, n int64) []byte {
	return withFrame(seed, "durations", func(e *snapshot.Encoder) {
		writeTally(e, pairs)
		e.Varint(0) // not whole
		e.Varint(n)
		e.Varint(60 * n) // full seconds, then nanoseconds
		e.Varint(0)
		e.Varint(60 * n) // truncated seconds, then nanoseconds
		e.Varint(0)
	})
}

// withHandovers returns seed with a handovers frame holding no unaccounted
// session, then the by-kind and per-session tallies given.
func withHandovers(seed []byte, byKind, perSession [][2]uint64) []byte {
	return withFrame(seed, "handovers", func(e *snapshot.Encoder) {
		e.Uvarint(0)  // open sessions
		e.Bool(false) // heads not tracked
		writeTally(e, byKind)
		writeTally(e, perSession)
	})
}

// withUsage returns seed with a usage frame holding no unaccounted
// session, then the hour-of-week tally and session count given.
func withUsage(seed []byte, hours [][2]uint64, sessions int64) []byte {
	return withFrame(seed, "usage", func(e *snapshot.Encoder) {
		e.Uvarint(0)  // open sessions
		e.Bool(false) // heads not tracked
		writeTally(e, hours)
		e.Varint(sessions)
	})
}

// usageInterval is one open session or head of a forged usage frame:
// its car, start and length as the frame writes them.
type usageInterval struct {
	car    uint64
	start  int64
	length uint64
}

// withUsageIntervals returns seed with a usage frame holding the open
// sessions given, the heads given when tracked, no hour counted and the
// closed-session count given.
func withUsageIntervals(seed []byte, open []usageInterval, tracked bool, heads []usageInterval, sessions int64) []byte {
	list := func(e *snapshot.Encoder, ivs []usageInterval) {
		e.Uvarint(uint64(len(ivs)))
		for _, iv := range ivs {
			e.Uvarint(iv.car)
			e.Varint(iv.start)
			e.Uvarint(iv.length)
		}
	}
	return withFrame(seed, "usage", func(e *snapshot.Encoder) {
		list(e, open)
		if e.Bool(tracked); tracked {
			list(e, heads)
		}
		writeTally(e, nil)
		e.Varint(sessions)
	})
}

// usageRefusals are usage frames a restore must refuse, one per rule of
// the open sessions, the heads and the session count.
func usageRefusals(seed []byte) []struct {
	name string
	data []byte
} {
	at := t0.UnixNano()
	ok := []usageInterval{{3, at, 60e9}, {5, at, 0}}
	return []struct {
		name string
		data []byte
	}{
		{"open cars descending", withUsageIntervals(seed, []usageInterval{{5, at, 60e9}, {3, at, 60e9}}, false, nil, 0)},
		{"open car repeated", withUsageIntervals(seed, []usageInterval{{5, at, 60e9}, {5, at, 60e9}}, false, nil, 0)},
		{"head cars descending", withUsageIntervals(seed, ok, true, []usageInterval{{9, at, 1}, {4, at, 1}}, 0)},
		{"head car repeated", withUsageIntervals(seed, ok, true, []usageInterval{{4, at, 1}, {4, at, 1}}, 0)},
		{"open session ends before it starts", withUsageIntervals(seed, []usageInterval{{3, at, math.MaxUint64}}, false, nil, 0)},
		{"head ends before it starts", withUsageIntervals(seed, ok, true, []usageInterval{{4, at, 1 << 63}}, 0)},
		{"negative session count", withUsageIntervals(seed, ok, false, nil, -1)},
	}
}

// TestUsageFrameRefusals: each malformed usage frame is ErrBadSnapshot,
// and the same frame well formed restores to the sessions it holds —
// each counted once, marking the hours from its start to its end.
func TestUsageFrameRefusals(t *testing.T) {
	seed := fuzzSnapshotSeed()
	at := t0.Add(3 * time.Hour).UnixNano()
	data := withUsageIntervals(seed,
		[]usageInterval{{3, at, uint64(time.Hour)}, {5, at, 0}}, // an hour; nothing, ending where it starts on the hour
		true, []usageInterval{{4, at + int64(time.Hour), 90e9}}, 2)
	p, err := ReadPartial(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("well-formed usage frame refused: %v", err)
	}
	// t0 is a Monday at midnight UTC; the seed's study is five hours west.
	if rep := p.Finalize(); rep.UsageSessions != 5 || rep.FleetUsage.Sum() != 2 || rep.FleetUsage.At(22, 6) != 1 || rep.FleetUsage.At(23, 6) != 1 {
		t.Errorf("well-formed usage frame restored to %d sessions and matrix %v", rep.UsageSessions, rep.FleetUsage)
	}
	for _, tc := range usageRefusals(seed) {
		if _, err := ReadPartial(bytes.NewReader(tc.data)); !errors.Is(err, snapshot.ErrBadSnapshot) {
			t.Errorf("%s: got %v, want ErrBadSnapshot", tc.name, err)
		}
	}
}

// durationsRefusals are durations frames a restore must refuse, each
// beside a well-formed seed.
var durationsRefusals = []struct {
	name  string
	pairs [][2]uint64
	n     int64
}{
	{"second 601", [][2]uint64{{601, 1}}, 1},
	{"repeated second", [][2]uint64{{60, 1}, {60, 1}}, 2},
	{"descending seconds", [][2]uint64{{60, 1}, {30, 1}}, 2},
	{"zero count", [][2]uint64{{60, 0}}, 0},
	{"counts sum above n", [][2]uint64{{30, 1}, {60, 2}}, 4},
	{"counts sum below n", [][2]uint64{{30, 1}, {60, 2}}, 2},
	{"count overflows the sum", [][2]uint64{{30, 1 << 62}, {60, 1 << 62}}, 1<<63 - 1},
}

// TestDurationsFrameRefusals: each malformed durations frame is
// ErrBadSnapshot, and the same frame well formed restores to the counts
// it holds.
func TestDurationsFrameRefusals(t *testing.T) {
	seed := fuzzSnapshotSeed()
	p, err := ReadPartial(bytes.NewReader(withDurations(seed, [][2]uint64{{30, 1}, {60, 2}}, 3)))
	if err != nil {
		t.Fatalf("well-formed durations frame refused: %v", err)
	}
	if d := p.Finalize().Durations; d.Median != 60 || d.Truncated.N() != 3 {
		t.Fatalf("well-formed durations frame restored to median %v of %d records", d.Median, d.Truncated.N())
	}
	for _, tc := range durationsRefusals {
		if _, err := ReadPartial(bytes.NewReader(withDurations(seed, tc.pairs, tc.n))); !errors.Is(err, snapshot.ErrBadSnapshot) {
			t.Errorf("%s: got %v, want ErrBadSnapshot", tc.name, err)
		}
	}
}

// countRefusals are handovers and usage frames a restore must refuse,
// one per rule decodeTally and the handovers restore enforce, each beside
// a well-formed seed, and the frames a stage derived from presence wrote
// before snapshot version 5.
func countRefusals(seed []byte) []struct {
	name string
	data []byte
} {
	type pairs = [][2]uint64
	return []struct {
		name string
		data []byte
	}{
		{"kind above the last kind", withHandovers(seed, pairs{{radio.NumHandoverKinds, 1}}, pairs{{1, 1}})},
		{"HandoverNone kind", withHandovers(seed, pairs{{uint64(radio.HandoverNone), 1}}, pairs{{1, 1}})},
		{"repeated kind", withHandovers(seed, pairs{{0, 1}, {0, 1}}, pairs{{2, 1}})},
		{"descending kinds", withHandovers(seed, pairs{{1, 1}, {0, 1}}, pairs{{2, 1}})},
		{"zero kind count", withHandovers(seed, pairs{{0, 0}}, pairs{{0, 1}})},
		{"kind counts overflow the sum", withHandovers(seed, pairs{{0, 1 << 62}, {1, 1 << 62}}, pairs{{1, 1 << 62}})},
		{"session above the span bound", withHandovers(seed, pairs{{0, maxSnapSpans + 1}}, pairs{{maxSnapSpans + 1, 1}})},
		{"first session value past the allocation rule", withHandovers(seed, pairs{{0, snapPrealloc}}, pairs{{snapPrealloc, 1}})},
		{"second session value past the allocation rule", withHandovers(seed, pairs{{0, 2 * snapPrealloc}}, pairs{{0, 1}, {2 * snapPrealloc, 1}})},
		{"repeated session value", withHandovers(seed, pairs{{0, 2}}, pairs{{1, 1}, {1, 1}})},
		{"descending session values", withHandovers(seed, pairs{{0, 3}}, pairs{{2, 1}, {1, 1}})},
		{"zero session count", withHandovers(seed, nil, pairs{{3, 0}})},
		{"session counts overflow the sum", withHandovers(seed, nil, pairs{{0, 1 << 62}, {1, 1 << 62}})},
		{"kinds above the sessions' handovers", withHandovers(seed, pairs{{0, 3}}, pairs{{1, 2}})},
		{"kinds below the sessions' handovers", withHandovers(seed, pairs{{0, 1}}, pairs{{1, 2}})},
		{"sessions' handovers overflow", withHandovers(seed, pairs{{0, 1}}, pairs{{1 << 10, 1 << 54}})},
		{"hour 168", withUsage(seed, pairs{{168, 1}}, 1)},
		{"repeated hour", withUsage(seed, pairs{{5, 1}, {5, 1}}, 2)},
		{"descending hours", withUsage(seed, pairs{{9, 1}, {5, 1}}, 2)},
		{"zero hour count", withUsage(seed, pairs{{5, 0}}, 1)},
		{"hour counts overflow the sum", withUsage(seed, pairs{{5, 1 << 62}, {6, 1 << 62}}, 1)},
		{"days frame", withDerivedFrame(seed, "days")},
		{"segments frame", withDerivedFrame(seed, "segments")},
		{"busy frame", withDerivedFrame(seed, "busy")},
	}
}

// TestCountFrameRefusals: each malformed handovers or usage frame is
// ErrBadSnapshot — none but the allocation rule's two is a state Add can
// build, and each of those once restored into a state that re-encoded
// to other bytes or printed NaN — and the same frames well formed
// restore to the counts they hold.
func TestCountFrameRefusals(t *testing.T) {
	seed := fuzzSnapshotSeed()
	data := withHandovers(seed, [][2]uint64{{0, 3}, {3, 1}}, [][2]uint64{{0, 2}, {1, 2}, {2, 1}})
	data = withUsage(data, [][2]uint64{{0, 2}, {167, 1}}, 2)
	p, err := ReadPartial(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("well-formed count frames refused: %v", err)
	}
	rep := p.Finalize()
	h := rep.Handovers
	wantKinds := map[radio.HandoverKind]int64{radio.HandoverInterBS: 3, radio.HandoverInterSector: 1}
	if h.Sessions != 5 || h.Median != 1 || h.PerSession.At(0) != 0.4 || !reflect.DeepEqual(h.ByKind, wantKinds) {
		t.Errorf("well-formed handovers frame restored to %d sessions, median %v, P(0) %v, kinds %v",
			h.Sessions, h.Median, h.PerSession.At(0), h.ByKind)
	}
	if u := rep.FleetUsage; rep.UsageSessions != 2 || u.At(0, 0) != 2 || u.At(23, 6) != 1 || u.Sum() != 3 {
		t.Errorf("well-formed usage frame restored to %d sessions and matrix %v", rep.UsageSessions, u)
	}
	for _, tc := range countRefusals(seed) {
		if _, err := ReadPartial(bytes.NewReader(tc.data)); !errors.Is(err, snapshot.ErrBadSnapshot) {
			t.Errorf("%s: got %v, want ErrBadSnapshot", tc.name, err)
		}
	}
	// The highest session value each pair may name restores.
	data = withHandovers(seed, [][2]uint64{{0, 3*snapPrealloc - 2}}, [][2]uint64{{snapPrealloc - 1, 1}, {2*snapPrealloc - 1, 1}})
	if p, err := ReadPartial(bytes.NewReader(data)); err != nil {
		t.Errorf("sessions of %d and %d handovers refused: %v", snapPrealloc-1, 2*snapPrealloc-1, err)
	} else if h := p.Finalize().Handovers; h.Sessions != 2 || h.ByKind[radio.HandoverInterBS] != 3*snapPrealloc-2 {
		t.Errorf("sessions of %d and %d handovers restored to %d sessions, kinds %v", snapPrealloc-1, 2*snapPrealloc-1, h.Sessions, h.ByKind)
	}
}

// TestTallyRestoreAllocatesWhatItReads: a tally frame of a few bytes
// cannot make a restore allocate a tally as long as its bound — a
// decode's tally holds at most snapPrealloc values per pair it read.
func TestTallyRestoreAllocatesWhatItReads(t *testing.T) {
	for _, tc := range []struct {
		pairs [][2]uint64
		ok    bool
	}{
		{[][2]uint64{{maxSnapSpans, 1}}, false},
		{[][2]uint64{{snapPrealloc, 1}}, false},
		{[][2]uint64{{0, 1}, {1, 1}, {maxSnapSpans, 1}}, false},
		{[][2]uint64{{snapPrealloc - 1, 1}}, true},
		{[][2]uint64{{0, 1}, {1, 1}, {3*snapPrealloc - 1, 1}}, true},
	} {
		var frame bytes.Buffer
		writeTally(snapshot.NewEncoder(&frame), tc.pairs)
		const runs = 64
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var err error
		for range runs {
			d := snapshot.NewDecoderBytes(frame.Bytes())
			decodeTally(d, maxSnapSpans)
			err = d.Err()
		}
		runtime.ReadMemStats(&after)
		if (err == nil) != tc.ok {
			t.Errorf("%v: got %v, want accepted %v", tc.pairs, err, tc.ok)
		}
		perRun := (after.TotalAlloc - before.TotalAlloc) / runs
		// Twice the tally: under -race, append builds the zeros it adds
		// before copying them.
		if limit := uint64(2*8*snapPrealloc*len(tc.pairs) + 1<<14); perRun > limit {
			t.Errorf("%v: a %d-byte frame allocates %d bytes per restore, want ≤ %d", tc.pairs, frame.Len(), perRun, limit)
		}
	}
}

// FuzzReadPartial hammers the full snapshot restore path — container
// parsing, header validation, every accumulator's RestoreFrom — with
// arbitrary bytes. The invariant: ReadPartial either returns an error
// wrapping snapshot.ErrBadSnapshot or a partial whose Finalize
// succeeds; it never panics.
func FuzzReadPartial(f *testing.F) {
	seed := fuzzSnapshotSeed()
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add(seed[:9])
	f.Add([]byte{})
	flipped := append([]byte(nil), seed...)
	flipped[len(flipped)/3] ^= 0x10
	f.Add(flipped)
	for _, tc := range durationsRefusals {
		f.Add(withDurations(seed, tc.pairs, tc.n))
	}
	for _, tc := range countRefusals(seed) {
		f.Add(tc.data)
	}
	for _, tc := range usageRefusals(seed) {
		f.Add(tc.data)
	}
	for _, tc := range presenceRefusals(seed) {
		f.Add(tc.data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ReadPartial(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, snapshot.ErrBadSnapshot) {
				t.Fatalf("ReadPartial error %v does not wrap ErrBadSnapshot", err)
			}
			return
		}
		rep := p.Finalize()
		if rep == nil {
			t.Fatal("clean restore finalized to nil report")
		}
	})
}
