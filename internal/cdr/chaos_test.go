package cdr

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"
)

func TestChaosReaderDeterministicAndCounted(t *testing.T) {
	in := randomRecords(2000, 5)
	cfg := ChaosConfig{Seed: 42, CorruptProb: 0.01, DuplicateProb: 0.01, ReorderProb: 0.01}

	drain := func() ([]Record, ChaosStats) {
		c := NewChaosReader(NewSliceReader(in), cfg)
		records, err := ReadAll(c)
		if err != nil {
			t.Fatalf("chaos over a clean source failed: %v", err)
		}
		return records, c.Stats()
	}

	r1, s1 := drain()
	r2, s2 := drain()
	if !reflect.DeepEqual(r1, r2) || s1 != s2 {
		t.Fatalf("chaos not deterministic: %d/%d records, %+v vs %+v", len(r1), len(r2), s1, s2)
	}
	if s1.Corrupted == 0 || s1.Duplicated == 0 || s1.Reordered == 0 {
		t.Fatalf("expected every fault kind at 1%% over 2000 records: %+v", s1)
	}
	// No record lost: delivered = input + duplicates (corruption and
	// reordering never drop records).
	if want := int64(len(in)) + s1.Duplicated; int64(len(r1)) != want {
		t.Fatalf("delivered %d records, want %d", len(r1), want)
	}
	// Corrupted records fail validation (a duplicate of a corrupted
	// record is invalid too, hence the upper bound).
	var invalid int64
	for _, r := range r1 {
		if r.Validate() != nil {
			invalid++
		}
	}
	if invalid < s1.Corrupted || invalid > s1.Corrupted+s1.Duplicated {
		t.Fatalf("invalid records %d outside [%d, %d]", invalid, s1.Corrupted, s1.Corrupted+s1.Duplicated)
	}
}

func TestFlipReaderDamagesBinaryStreamSafely(t *testing.T) {
	// A bit-rotted binary stream must produce errors, never panics,
	// and the resilient wrapper must survive everything short of the
	// error budget.
	in := randomRecords(500, 6)
	data := encodeBinary(t, in)
	flip := NewFlipReader(bytes.NewReader(data), 0.001, 7)
	r := NewResilientReader(NewBinaryReader(flip), noBudget())
	out, err := ReadAll(r)
	if err != nil && !errors.Is(err, io.EOF) {
		// Bad magic from a header flip is a legitimate hard failure;
		// anything else should have been absorbed.
		if !bytes.Contains([]byte(err.Error()), []byte("magic")) {
			t.Fatalf("unexpected error: %v", err)
		}
		return
	}
	if len(out) > len(in) {
		t.Fatalf("bit flips created records: %d > %d", len(out), len(in))
	}
}

func TestTruncateReaderEndsBinaryStream(t *testing.T) {
	in := randomRecords(100, 7)
	data := encodeBinary(t, in)
	cut := int64(len(data) - binRecordSize/2) // tear the last record
	r := NewResilientReader(NewBinaryReader(NewTruncateReader(bytes.NewReader(data), cut)), noBudget())
	out, err := ReadAll(r)
	if err != nil {
		t.Fatalf("torn tail must degrade to EOF, got %v", err)
	}
	if len(out) != len(in)-1 {
		t.Fatalf("records = %d, want %d", len(out), len(in)-1)
	}
	if r.Stats().Quarantined[ClassTruncated] != 1 {
		t.Fatalf("stats = %+v", r.Stats())
	}
}

func TestFaultReaderSurfacesIOError(t *testing.T) {
	in := randomRecords(100, 8)
	data := encodeBinary(t, in)
	boom := errors.New("io pressure")
	r := NewBinaryReader(NewFaultReader(bytes.NewReader(data), int64(len(data)/2), boom))
	_, err := ReadAll(r)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the injected fault", err)
	}
}
