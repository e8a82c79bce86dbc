package analysis

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"cellcars/internal/cdr"
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

// withDurations returns seed with its durations frame written afresh:
// the (second, count) pairs given, then n, and sums that agree with n.
func withDurations(seed []byte, pairs [][2]uint64, n int64) []byte {
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
		if name != "stage:durations" {
			w.RawFrame(name, payload)
			continue
		}
		e := w.Begin(name)
		e.Uvarint(uint64(len(pairs)))
		for _, p := range pairs {
			e.Uvarint(p[0])
			e.Uvarint(p[1])
		}
		e.Varint(0) // not whole
		e.Varint(n)
		e.Varint(60 * n) // full seconds, then nanoseconds
		e.Varint(0)
		e.Varint(60 * n) // truncated seconds, then nanoseconds
		e.Varint(0)
		w.End()
	}
	if err := w.Close(); err != nil {
		panic(err)
	}
	return out.Bytes()
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
