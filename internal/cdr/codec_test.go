package cdr

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"time"
)

// encodeBinary writes records to an in-memory binary stream.
func encodeBinary(t testing.TB, records []Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewBinaryWriter(&buf)
	if err := WriteAll(w, records); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// encodeCSV writes records to an in-memory CSV stream.
func encodeCSV(t testing.TB, records []Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewCSVWriter(&buf)
	if err := WriteAll(w, records); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestBinaryTruncatedTailSentinel(t *testing.T) {
	// N whole records plus half of one more: the whole records decode,
	// then the partial tail surfaces as ErrTruncated, not a bare
	// io.ErrUnexpectedEOF.
	in := []Record{
		rec(1, 1, 0, time.Minute),
		rec(2, 2, time.Hour, 2*time.Minute),
		rec(3, 3, 2*time.Hour, 3*time.Minute),
	}
	data := encodeBinary(t, in)
	half := append([]byte(nil), data...)
	half = append(half, encodeBinary(t, []Record{rec(4, 4, 3*time.Hour, time.Minute)})[8:8+binRecordSize/2]...)

	r := NewBinaryReader(bytes.NewReader(half))
	for i := range in {
		got, err := r.Read()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got != in[i] {
			t.Fatalf("record %d: %+v != %+v", i, got, in[i])
		}
	}
	_, err := r.Read()
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("partial tail error = %v, want ErrTruncated", err)
	}
	if errors.Is(err, io.EOF) {
		t.Fatalf("truncation must not be confused with clean EOF: %v", err)
	}
}

func TestBinaryTruncatedHeaderSentinel(t *testing.T) {
	_, err := NewBinaryReader(bytes.NewReader(binMagic[:3])).Read()
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("partial header error = %v, want ErrTruncated", err)
	}
}

func TestBinaryBadValueKeepsAlignment(t *testing.T) {
	// A record with an invalid carrier is reported as ErrBadRecord and
	// the fixed framing lets the next record decode cleanly.
	good := rec(7, 7, time.Hour, time.Minute)
	bad := good
	bad.Cell &^= 0xff // carrier 0
	var buf bytes.Buffer
	w := NewBinaryWriter(&buf)
	if err := w.Write(good); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(bad); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(good); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r := NewBinaryReader(&buf)
	if _, err := r.Read(); err != nil {
		t.Fatalf("first record: %v", err)
	}
	if _, err := r.Read(); !errors.Is(err, ErrBadRecord) {
		t.Fatalf("bad record error = %v, want ErrBadRecord", err)
	}
	got, err := r.Read()
	if err != nil || got != good {
		t.Fatalf("post-error record = %+v, %v; want clean decode", got, err)
	}
}

func TestCSVHeaderStrict(t *testing.T) {
	body := "5,196611,1483315200,60\n"
	cases := []struct {
		name    string
		raw     string
		records int
		wantErr bool
	}{
		{"header", "car,cell,start_unix,duration_s\n" + body, 1, false},
		{"no header", body, 1, false},
		{"header only", "car,cell,start_unix,duration_s\n", 0, false},
		{"empty file", "", 0, false},
		// A first row that merely starts like the header is data, not a
		// header: it must surface as a parse error rather than being
		// silently swallowed.
		{"header-like prefix", "car,cell,start_unix,wrong\n" + body, 1, true},
		{"reordered header", "cell,car,start_unix,duration_s\n" + body, 1, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewCSVReader(strings.NewReader(tc.raw))
			var n int
			var firstErr error
			for {
				_, err := r.Read()
				if errors.Is(err, io.EOF) {
					break
				}
				if err != nil {
					if firstErr == nil {
						firstErr = err
					}
					continue
				}
				n++
			}
			if n != tc.records {
				t.Fatalf("records = %d, want %d", n, tc.records)
			}
			if tc.wantErr && !errors.Is(firstErr, ErrBadRecord) {
				t.Fatalf("err = %v, want ErrBadRecord", firstErr)
			}
			if !tc.wantErr && firstErr != nil {
				t.Fatalf("unexpected error %v", firstErr)
			}
		})
	}
}

func TestCSVBadRowsAreResumable(t *testing.T) {
	raw := "car,cell,start_unix,duration_s\n" +
		"5,196611,1483315200,60\n" +
		"not,a,valid,row\n" +
		"too,few,fields\n" +
		"6,196611,1483315300,30\n"
	r := NewCSVReader(strings.NewReader(raw))
	var cars []CarID
	var badRows int
	for {
		recd, err := r.Read()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			if !errors.Is(err, ErrBadRecord) {
				t.Fatalf("unexpected error class: %v", err)
			}
			badRows++
			continue
		}
		cars = append(cars, recd.Car)
	}
	if badRows != 2 || len(cars) != 2 || cars[0] != 5 || cars[1] != 6 {
		t.Fatalf("bad=%d cars=%v, want 2 bad rows and cars [5 6]", badRows, cars)
	}
}
