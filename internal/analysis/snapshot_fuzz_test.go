package analysis

import (
	"bytes"
	"errors"
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
