package cdr

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"time"

	"cellcars/internal/radio"
)

// drainAll reads every record until EOF or a terminal error,
// tolerating resumable per-record errors the way ResilientReader
// does. It bounds iterations so a decoder bug can never hang the
// fuzzer.
func drainAll(t *testing.T, r Reader, limit int) []Record {
	t.Helper()
	var out []Record
	for i := 0; i < limit; i++ {
		rec, err := r.Read()
		if errors.Is(err, io.EOF) {
			return out
		}
		if err != nil {
			if errors.Is(err, ErrBadRecord) {
				continue // resumable
			}
			return out // terminal: truncation, bad magic, I/O
		}
		out = append(out, rec)
	}
	t.Fatalf("reader did not terminate within %d reads", limit)
	return nil
}

// FuzzCSVReader asserts the CSV codec never panics on arbitrary
// bytes, that whatever it accepts round-trips bit-exactly, and that
// ReadBatch at any sizes returns what Read does, the source cut into
// reads of any size.
func FuzzCSVReader(f *testing.F) {
	for i, seed := range []string{
		"car,cell,start_unix,duration_s\n5,196611,1483315200,60\n",
		"5,196611,1483315200,60\n6,196611,1483315300,0\n",
		"car,cell,start_unix,duration_s\n",
		"",
		"car,cell\nstray\n\"unterminated",
		"-1,-2,-3,-4\n99999999999999999999,1,2,3\n",
	} {
		f.Add([]byte(seed), uint16(i*7), uint64(i))
	}
	f.Fuzz(func(t *testing.T, data []byte, chunk uint16, sizes uint64) {
		checkBatchesMatchRead(t, func() fileCodec {
			return NewCSVReader(chunkReader{bytes.NewReader(data), int(chunk)})
		}, batchSizes(sizes), len(data)+16)
		decoded := drainAll(t, NewCSVReader(bytes.NewReader(data)), len(data)+16)
		for _, rec := range decoded {
			if err := rec.Validate(); err != nil {
				t.Fatalf("codec emitted invalid record %+v: %v", rec, err)
			}
		}
		if len(decoded) == 0 {
			return
		}
		// Round-trip: accepted records re-encode and re-decode exactly.
		var buf bytes.Buffer
		w := NewCSVWriter(&buf)
		if err := WriteAll(w, decoded); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		again, err := ReadAll(NewCSVReader(&buf))
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if len(again) != len(decoded) {
			t.Fatalf("round-trip %d != %d records", len(again), len(decoded))
		}
		for i := range again {
			if !sameRecord(again[i], decoded[i]) {
				t.Fatalf("round-trip record %d: %+v != %+v", i, again[i], decoded[i])
			}
		}
	})
}

// FuzzBinaryReader asserts the binary codec never panics on arbitrary
// bytes, that whatever it accepts round-trips bit-exactly, and that
// ReadBatch at any sizes returns what Read does, the source cut into
// reads of any size.
func FuzzBinaryReader(f *testing.F) {
	valid := func(recs ...Record) []byte {
		var buf bytes.Buffer
		w := NewBinaryWriter(&buf)
		for _, r := range recs {
			if err := w.Write(r); err != nil {
				f.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	r1 := Record{Car: 5, Cell: radio.MakeCellKey(3, 0, radio.C3), Start: time.Unix(1483315200, 0).UTC(), Duration: time.Minute}
	full := valid(r1, Record{Car: 6, Cell: radio.MakeCellKey(4, 1, radio.C1), Start: time.Unix(1483315260, 0).UTC(), Duration: 0})
	many := make([]Record, 700)
	for i := range many {
		many[i] = r1
		many[i].Car = CarID(i)
	}
	for i, seed := range [][]byte{
		full,
		full[:len(full)-5], // torn tail
		valid(),            // magic only
		[]byte("CCARCDR1"),
		[]byte("not a cdr file"),
		{},
		valid(many...),
	} {
		f.Add(seed, uint16(i*11), uint64(i))
	}
	f.Fuzz(func(t *testing.T, data []byte, chunk uint16, sizes uint64) {
		checkBatchesMatchRead(t, func() fileCodec {
			return NewBinaryReader(chunkReader{bytes.NewReader(data), int(chunk)})
		}, batchSizes(sizes), len(data)/binRecordSize+16)
		decoded := drainAll(t, NewBinaryReader(bytes.NewReader(data)), len(data)/binRecordSize+16)
		for _, rec := range decoded {
			if err := rec.Validate(); err != nil {
				t.Fatalf("codec emitted invalid record %+v: %v", rec, err)
			}
		}
		if len(decoded) == 0 {
			return
		}
		var buf bytes.Buffer
		w := NewBinaryWriter(&buf)
		if err := WriteAll(w, decoded); err != nil {
			// Records decoded from arbitrary bytes can carry durations
			// beyond the uint32 encoding range only if the decoder is
			// broken — the wire format is 32-bit.
			t.Fatalf("re-encode rejected decoded record: %v", err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		again, err := ReadAll(NewBinaryReader(&buf))
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if len(again) != len(decoded) {
			t.Fatalf("round-trip %d != %d records", len(again), len(decoded))
		}
		for i := range again {
			if !sameRecord(again[i], decoded[i]) {
				t.Fatalf("round-trip record %d: %+v != %+v", i, again[i], decoded[i])
			}
		}
	})
}
