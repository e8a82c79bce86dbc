package cdr

import (
	"bytes"
	"errors"
	"io"
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"cellcars/internal/radio"
)

var t0 = time.Date(2017, 1, 2, 0, 0, 0, 0, time.UTC)

func rec(car CarID, bs radio.BSID, start time.Duration, dur time.Duration) Record {
	return Record{
		Car:      car,
		Cell:     radio.MakeCellKey(bs, 0, radio.C3),
		Start:    t0.Add(start),
		Duration: dur,
	}
}

// randomRecords draws n valid records over 500 cars and 90 days, in no
// particular order.
func randomRecords(n int, seed uint64) []Record {
	rng := rand.New(rand.NewPCG(seed, 77))
	out := make([]Record, n)
	for i := range out {
		out[i] = Record{
			Car:      CarID(rng.Uint64N(500)),
			Cell:     radio.MakeCellKey(radio.BSID(rng.Uint32N(100)), radio.SectorID(rng.UintN(3)), radio.CarrierID(rng.UintN(5)+1)),
			Start:    t0.Add(time.Duration(rng.Uint64N(90*24*3600)) * time.Second),
			Duration: time.Duration(rng.Uint64N(600)) * time.Second,
		}
	}
	return out
}

func TestRecordEnd(t *testing.T) {
	r := rec(1, 2, time.Hour, 90*time.Second)
	if got := r.End(); !got.Equal(t0.Add(time.Hour + 90*time.Second)) {
		t.Fatalf("End = %v", got)
	}
}

func TestRecordValidate(t *testing.T) {
	good := rec(1, 2, 0, time.Minute)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid record rejected: %v", err)
	}
	bad := good
	bad.Duration = -time.Second
	if bad.Validate() == nil {
		t.Fatal("negative duration accepted")
	}
	bad = good
	bad.Cell = radio.CellKey(7 << 16) // carrier 0
	if bad.Validate() == nil {
		t.Fatal("invalid carrier accepted")
	}
	bad = good
	bad.Start = time.Time{}
	if bad.Validate() == nil {
		t.Fatal("zero start accepted")
	}
}

func TestRecordBeforeTotalOrder(t *testing.T) {
	a := rec(1, 1, 0, time.Minute)
	b := rec(2, 1, 0, time.Minute)
	c := rec(1, 1, time.Second, time.Minute)
	if !a.Before(b) || b.Before(a) {
		t.Fatal("car tiebreak wrong")
	}
	if !a.Before(c) || c.Before(a) {
		t.Fatal("time order wrong")
	}
	d := a
	d.Cell = radio.MakeCellKey(9, 0, radio.C3)
	if !a.Before(d) {
		t.Fatal("cell tiebreak wrong")
	}
	if a.Before(a) {
		t.Fatal("irreflexivity violated")
	}
}

func TestSliceReaderWriter(t *testing.T) {
	in := []Record{rec(1, 1, 0, time.Minute), rec(2, 2, time.Hour, time.Second)}
	var w SliceWriter
	if err := WriteAll(&w, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadAll(NewSliceReader(w.Records))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0] != in[0] || out[1] != in[1] {
		t.Fatalf("round trip mismatch: %v", out)
	}
	// Draining again yields EOF immediately.
	r := NewSliceReader(nil)
	if _, err := r.Read(); !errors.Is(err, io.EOF) {
		t.Fatalf("empty reader error = %v", err)
	}
}

func TestSortAndSorted(t *testing.T) {
	records := []Record{
		rec(3, 1, 2*time.Hour, time.Minute),
		rec(1, 1, 0, time.Minute),
		rec(2, 1, time.Hour, time.Minute),
	}
	Sort(records)
	if !sort.SliceIsSorted(records, func(i, j int) bool { return records[i].Before(records[j]) }) {
		t.Fatal("sorted records are not in Before order")
	}
	if records[0].Car != 1 || records[2].Car != 3 {
		t.Fatalf("wrong order: %v", records)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	in := []Record{
		rec(10, 1, 0, 105*time.Second),
		rec(11, 2, 26*time.Hour, 600*time.Second),
		rec(1<<60, 3, 48*time.Hour, 0),
	}
	var buf bytes.Buffer
	w := NewCSVWriter(&buf)
	if err := WriteAll(w, in); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	out, err := ReadAll(NewCSVReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("rows = %d, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("row %d: %+v != %+v", i, out[i], in[i])
		}
	}
}

func TestCSVReaderHeaderOptional(t *testing.T) {
	// A file without the header line must also parse.
	raw := "5,196611,1483315200,60\n"
	// cell 196611 = bs3/s0/C3.
	out, err := ReadAll(NewCSVReader(bytes.NewBufferString(raw)))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Car != 5 || out[0].Cell.BS() != 3 {
		t.Fatalf("parsed %+v", out)
	}
}

func TestCSVReaderRejectsGarbage(t *testing.T) {
	cases := []string{
		"car,cell,start_unix,duration_s\nx,1,2,3\n",
		"car,cell,start_unix,duration_s\n1,x,2,3\n",
		"car,cell,start_unix,duration_s\n1,2,x,3\n",
		"car,cell,start_unix,duration_s\n1,196611,1483315200,x\n",
		"car,cell,start_unix,duration_s\n1,196611,1483315200,-5\n", // negative duration
		"car,cell,start_unix,duration_s\n1,7,1483315200,5\n",       // carrier 7 invalid
	}
	for i, raw := range cases {
		if _, err := ReadAll(NewCSVReader(bytes.NewBufferString(raw))); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
}

func TestCSVWriterClosed(t *testing.T) {
	w := NewCSVWriter(&bytes.Buffer{})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(rec(1, 1, 0, time.Second)); !errors.Is(err, ErrClosed) {
		t.Fatalf("write after close = %v", err)
	}
	if err := w.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("double close = %v", err)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	var in []Record
	rng := rand.New(rand.NewPCG(3, 4))
	for i := 0; i < 1000; i++ {
		in = append(in, Record{
			Car:      CarID(rng.Uint64()),
			Cell:     radio.MakeCellKey(radio.BSID(rng.Uint32()), radio.SectorID(rng.UintN(3)), radio.CarrierID(rng.UintN(5)+1)),
			Start:    t0.Add(time.Duration(rng.UintN(90*24*3600)) * time.Second),
			Duration: time.Duration(rng.UintN(7200)) * time.Second,
		})
	}
	var buf bytes.Buffer
	w := NewBinaryWriter(&buf)
	if err := WriteAll(w, in); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.Len(), 8+1000*binRecordSize; got != want {
		t.Fatalf("encoded size = %d, want %d", got, want)
	}
	out, err := ReadAll(NewBinaryReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("records = %d, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func TestBinaryEmptyStream(t *testing.T) {
	var buf bytes.Buffer
	w := NewBinaryWriter(&buf)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	out, err := ReadAll(NewBinaryReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("records = %d", len(out))
	}
}

func TestBinaryBadMagic(t *testing.T) {
	if _, err := ReadAll(NewBinaryReader(bytes.NewBufferString("NOTMAGIC___"))); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestBinaryTruncated(t *testing.T) {
	var buf bytes.Buffer
	w := NewBinaryWriter(&buf)
	if err := w.Write(rec(1, 1, 0, time.Minute)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-3]
	if _, err := ReadAll(NewBinaryReader(bytes.NewReader(trunc))); err == nil {
		t.Fatal("truncated stream accepted")
	}
}

func TestBinaryRoundTripProperty(t *testing.T) {
	f := func(car uint64, bs uint32, sector uint8, carrierRaw, durMin uint16, startOff uint32) bool {
		in := Record{
			Car:      CarID(car),
			Cell:     radio.MakeCellKey(radio.BSID(bs), radio.SectorID(sector), radio.CarrierID(carrierRaw%5)+radio.C1),
			Start:    t0.Add(time.Duration(startOff) * time.Second),
			Duration: time.Duration(durMin) * time.Second,
		}
		var buf bytes.Buffer
		w := NewBinaryWriter(&buf)
		if err := w.Write(in); err != nil {
			return false
		}
		if err := w.Close(); err != nil {
			return false
		}
		out, err := ReadAll(NewBinaryReader(&buf))
		return err == nil && len(out) == 1 && out[0] == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestFilterFunc(t *testing.T) {
	in := []Record{rec(1, 1, 0, time.Minute), rec(2, 1, time.Hour, time.Minute), rec(3, 1, 2*time.Hour, time.Minute)}
	out, err := ReadAll(FilterFunc(NewSliceReader(in), func(r Record) bool { return r.Car != 2 }))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0].Car != 1 || out[1].Car != 3 {
		t.Fatalf("filter output: %v", out)
	}
}

// TestCSVRoundTripProperty mirrors the binary round-trip property for
// the CSV codec.
func TestCSVRoundTripProperty(t *testing.T) {
	f := func(car uint64, bs uint32, sector uint8, carrierRaw uint8, durMin uint16, startOff uint32) bool {
		in := Record{
			Car:      CarID(car),
			Cell:     radio.MakeCellKey(radio.BSID(bs), radio.SectorID(sector), radio.CarrierID(carrierRaw%5)+radio.C1),
			Start:    t0.Add(time.Duration(startOff) * time.Second),
			Duration: time.Duration(durMin) * time.Second,
		}
		var buf bytes.Buffer
		w := NewCSVWriter(&buf)
		if err := w.Write(in); err != nil {
			return false
		}
		if err := w.Close(); err != nil {
			return false
		}
		out, err := ReadAll(NewCSVReader(&buf))
		return err == nil && len(out) == 1 && out[0] == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
