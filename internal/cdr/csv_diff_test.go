package cdr

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/iotest"
	"time"
)

// chunkReader hands out at most n bytes per Read, so rows straddle the
// end of CSVReader's buffered bytes wherever n puts the cut.
type chunkReader struct {
	r io.Reader
	n int
}

func (c chunkReader) Read(p []byte) (int, error) {
	if c.n > 0 && len(p) > c.n {
		p = p[:c.n]
	}
	return c.r.Read(p)
}

// diffCSVReaders reads got and want result by result until both end
// and fails on the first divergence: a different record, a different
// verdict on ErrBadRecord, a different terminal error, or a different
// error text (which carries the line number the quarantine file shows).
func diffCSVReaders(t *testing.T, got, want Reader, limit int) {
	t.Helper()
	for i := 0; i < limit; i++ {
		g, gerr := got.Read()
		w, werr := want.Read()
		if g != w || fmt.Sprint(gerr) != fmt.Sprint(werr) || errors.Is(gerr, ErrBadRecord) != errors.Is(werr, ErrBadRecord) {
			t.Fatalf("result %d: got (%+v, %v), oracle (%+v, %v)", i, g, gerr, w, werr)
		}
		if werr == nil || errors.Is(werr, ErrBadRecord) {
			continue
		}
		// The terminal result repeats on both.
		_, gerr = got.Read()
		_, werr = want.Read()
		if fmt.Sprint(gerr) != fmt.Sprint(werr) {
			t.Fatalf("after terminal result %d: %v, oracle %v", i, gerr, werr)
		}
		return
	}
	t.Fatalf("readers did not end within %d reads", limit)
}

// csvFuzzSeeds are the shapes the reader's two paths must agree with
// encoding/csv on; FuzzCSVReaderMatchesEncodingCSV mutates from them.
func csvFuzzSeeds() [][]byte {
	const header = "car,cell,start_unix,duration_s\n"
	const row = "513,3670531,1483315200,60\n"
	// Longer than encoding/csv's own 4 KiB buffer. The line longer than
	// CSVReader's is in TestCSVReaderMatchesOracleAcrossRefills: as a seed
	// it stalls the fuzzer in minimisation.
	long := "7," + strings.Repeat("9", 5000) + ",1483315200,60\n"
	seeds := []string{
		header,
		header + header + row,
		"car,cell,start_unix,duration_s\r\n513,3670531,1483315200,60\r\n514,3670531,1483315260,0\r\n",
		header + "\n\n" + row + "\r\n\n" + row,
		header + row + "514,3670531,1483315260,30", // no final newline
		header + `"513","3670531","1483315200","60"` + "\n" + row,
		header + "513,\"36705\n31\",1483315200,60\n" + row, // quoted field spanning two lines
		header + "513,36\"70531,1483315200,60\n" + row,     // bare quote mid-field
		header + "513,3670531,1483315200\n" + row,          // 3 columns
		header + "513,3670531,1483315200,60,9\n" + row,     // 5 columns
		"+513,3670531,1483315200,60\n513,-3670531,1483315200,60\n513,3670531, 1483315200,60\n513,3670531,1483315200,-60\n" + row,
		"000513,0003670531,01483315200,0060\n" + row, // leading zeros
		"9223372036854775807,3670531,1483315200,60\n9999999999999999999,3670531,1483315200,60\n" + // 19 digits
			"513,3670531,9223372036854775807,60\n513,3670531,9999999999999999999,60\n" +
			"12345678901234567890,3670531,1483315200,60\n18446744073709551615,3,1,1\n18446744073709551616,3,1,1\n" + row, // 20 digits
		"513,3670531,1483315200,9223372036\n513,3670531,1483315200,9223372037\n" + row, // duration at and past MaxInt64/1e9
		"513,3670531,1483315200,60\x00\n513,36\x0070531,1483315200,60\n" + row,         // NUL
		"513,3670531\r,1483315200,60\n513,3670531,1483315200,60\r\r\n" + row,           // bare \r
		"513,3670528,1483315200,60\n513,3670534,1483315200,60\n" + row,                 // carrier 0 and 6: fails Validate
		",,,\n513,,1483315200,60\n" + row,
		header + row + long + row,
		// The three faults bench's injector writes into faulty.csv.
		header + row + "513,x3670531,1483315200,60\n" + "513,3670531,1483315200\n" + "513,3670531,2114035200,60\n" + row,
	}
	out := make([][]byte, len(seeds))
	for i, s := range seeds {
		out[i] = []byte(s)
	}
	return out
}

// FuzzCSVReaderMatchesEncodingCSV is the contract behind CSVReader's
// fast path: on any byte stream, cut into reads of any size, it
// returns what the encoding/csv + strconv reader it replaced returns.
func FuzzCSVReaderMatchesEncodingCSV(f *testing.F) {
	for i, seed := range csvFuzzSeeds() {
		f.Add(seed, uint16(0))
		f.Add(seed, uint16(1+i*7))
	}
	f.Fuzz(func(t *testing.T, data []byte, chunk uint16) {
		got := NewCSVReader(chunkReader{bytes.NewReader(data), int(chunk)})
		want := newOracleCSVReader(chunkReader{bytes.NewReader(data), int(chunk)})
		diffCSVReaders(t, got, want, len(data)+16)
	})
}

// TestCSVReaderMatchesOracleAcrossRefills runs a file several buffers
// long, with bench's three fault shapes sprinkled in, through both
// readers at read sizes that put buffer ends mid-row, and through a
// source that fails mid-file.
func TestCSVReaderMatchesOracleAcrossRefills(t *testing.T) {
	clean := encodeCSV(t, randomRecords(10000, 1))
	var dirty bytes.Buffer
	for i, line := range bytes.SplitAfter(clean, []byte("\n")) {
		switch {
		case i == 0 || i%97 != 0:
			dirty.Write(line)
		case i%3 == 0:
			dirty.WriteString("x")
			dirty.Write(line)
		case i%3 == 1:
			dirty.Write(line[:bytes.LastIndexByte(line, ',')])
			dirty.WriteString("\n")
		default:
			dirty.WriteString("\"open\nquote\",")
			dirty.Write(line)
		}
	}
	// Lines longer than the 64 KiB buffer, bare and quoted.
	dirty.WriteString("7," + strings.Repeat("9", 200<<10) + ",1483315200,60\n")
	dirty.Write(clean[len(clean)-60:])
	dirty.WriteString("7,\"" + strings.Repeat("9\n", 100<<10) + "\",1483315200,60\n")
	dirty.Write(clean[len(clean)-60:])
	data := dirty.Bytes()
	if len(data) < 3<<16 {
		t.Fatalf("fixture is %d bytes, want several 64 KiB buffers", len(data))
	}
	for _, chunk := range []int{0, 1, 7, 4096, 65535, 65537} {
		got := NewCSVReader(chunkReader{bytes.NewReader(data), chunk})
		want := newOracleCSVReader(chunkReader{bytes.NewReader(data), chunk})
		diffCSVReaders(t, got, want, len(data))
	}
	boom := errors.New("disk on fire")
	for _, cut := range []int{0, 31, 100000, len(data) - 3} {
		src := func() io.Reader {
			return io.MultiReader(bytes.NewReader(data[:cut]), iotest.ErrReader(boom))
		}
		diffCSVReaders(t, NewCSVReader(src()), newOracleCSVReader(src()), len(data))
	}
}

// TestCSVFastPathAllocatesNothing pins the point of the fast path: a
// clean row costs no allocation, and a whole clean file costs only the
// reader's set-up and one encoding/csv row per buffer refill.
func TestCSVFastPathAllocatesNothing(t *testing.T) {
	const rows = 10000
	data := encodeCSV(t, randomRecords(rows, 1))

	r := NewCSVReader(bytes.NewReader(data))
	if _, err := r.Read(); err != nil { // header and first row: fills the buffer
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(1000, func() {
		if _, err := r.Read(); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Fatalf("buffered clean row: %v allocations, want 0", a)
	}

	perFile := testing.AllocsPerRun(5, func() {
		r := NewCSVReader(bytes.NewReader(data))
		for n := 0; ; n++ {
			if _, err := r.Read(); err != nil {
				if err != io.EOF || n != rows {
					t.Fatalf("read %d rows, then %v", n, err)
				}
				return
			}
		}
	})
	if perRow := perFile / rows; perRow >= 0.01 {
		t.Fatalf("clean file: %.0f allocations over %d rows (%.4f per row), want < 0.01", perFile, rows, perRow)
	}
}

// TestCSVWriterMatchesEncodingCSV: appending digits writes the bytes
// csv.Writer wrote, negative starts included.
func TestCSVWriterMatchesEncodingCSV(t *testing.T) {
	records := append(randomRecords(10000, 1),
		Record{Car: 1<<64 - 1, Cell: 1<<64 - 1, Start: time.Unix(-5, 0).UTC(), Duration: 1<<63 - 1},
		Record{},
	)
	var want bytes.Buffer
	o := newOracleCSVWriter(&want)
	for _, r := range records {
		if err := o.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	if got := encodeCSV(t, records); !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("writer output differs from encoding/csv's (%d vs %d bytes)", len(got), want.Len())
	}
}

// Records the read benchmarks decode from memory per iteration.
const benchRows = 100000

func benchmarkRead(b *testing.B, data []byte, open func(io.Reader) Reader) {
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := open(bytes.NewReader(data))
		n := 0
		for {
			if _, err := r.Read(); err != nil {
				if err != io.EOF {
					b.Fatal(err)
				}
				break
			}
			n++
		}
		if n != benchRows {
			b.Fatalf("decoded %d of %d records", n, benchRows)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchRows), "ns/record")
}

// BenchmarkCSVRead and BenchmarkBinaryRead decode the same records, so
// the two codecs' cost per record can be compared and profiled
// (-cpuprofile) without a binary.
func BenchmarkCSVRead(b *testing.B) {
	data := encodeCSV(b, randomRecords(benchRows, 1))
	benchmarkRead(b, data, func(r io.Reader) Reader { return NewCSVReader(r) })
}

func BenchmarkBinaryRead(b *testing.B) {
	data := encodeBinary(b, randomRecords(benchRows, 1))
	benchmarkRead(b, data, func(r io.Reader) Reader { return NewBinaryReader(r) })
}

// BenchmarkCSVReadEncodingCSV is the reader CSVReader replaced, for the
// before/after on the same bytes.
func BenchmarkCSVReadEncodingCSV(b *testing.B) {
	data := encodeCSV(b, randomRecords(benchRows, 1))
	benchmarkRead(b, data, func(r io.Reader) Reader { return newOracleCSVReader(r) })
}
