package cdr

import (
	"bufio"
	"encoding/binary"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"cellcars/internal/radio"
)

// CSV format: a header line followed by one record per line with the
// columns car, cell, start_unix, duration_s. Cell is the packed
// CellKey in decimal; times are Unix seconds UTC.
var csvHeader = []string{"car", "cell", "start_unix", "duration_s"}

// Sentinel errors for record-level decode failures. Both codecs wrap
// their malformed-input errors so that callers (notably
// ResilientReader) can classify a failure without string matching.
var (
	// ErrBadRecord marks a record that decoded structurally but is
	// malformed: an unparseable field, a wrong column count, or a
	// failed Validate. The stream remains readable past it.
	ErrBadRecord = errors.New("malformed record")
	// ErrTruncated marks a binary stream that ends mid-record (or
	// mid-header): a partial trailing frame. No further records can be
	// recovered after it.
	ErrTruncated = errors.New("truncated stream")
)

// isHeaderRow reports whether row is exactly the standard CSV header.
// Header detection is strict — every column name must match — so that
// a data-like first row is never silently swallowed and a
// wrong-schema header is surfaced as a parse error instead of being
// skipped.
func isHeaderRow(row []string) bool {
	if len(row) != len(csvHeader) {
		return false
	}
	for i, f := range row {
		if f != csvHeader[i] {
			return false
		}
	}
	return true
}

// CSVWriter streams records as CSV.
type CSVWriter struct {
	w      *bufio.Writer
	line   []byte // one row, rebuilt in place per Write
	header bool
	closed bool
}

// NewCSVWriter returns a writer emitting the standard CDR CSV format
// to w. The header is written with the first record.
func NewCSVWriter(w io.Writer) *CSVWriter {
	return &CSVWriter{w: bufio.NewWriterSize(w, 1<<16)}
}

// Write emits one record. Every field is a decimal integer, which CSV
// never quotes, so the row is appended digit by digit and is
// byte-for-byte what encoding/csv would write.
func (c *CSVWriter) Write(r Record) error {
	if c.closed {
		return ErrClosed
	}
	b := c.line[:0]
	if !c.header {
		b = append(b, strings.Join(csvHeader, ",")...)
		b = append(b, '\n')
		c.header = true
	}
	b = strconv.AppendUint(b, uint64(r.Car), 10)
	b = append(b, ',')
	b = strconv.AppendUint(b, uint64(r.Cell), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, r.Start.Unix(), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(r.Duration/time.Second), 10)
	b = append(b, '\n')
	c.line = b
	_, err := c.w.Write(b)
	return err
}

// Close flushes buffered rows. The writer is unusable afterwards.
func (c *CSVWriter) Close() error {
	if c.closed {
		return ErrClosed
	}
	c.closed = true
	return c.w.Flush()
}

// CSVReader streams records from the standard CDR CSV format.
//
// The dialect is encoding/csv's (RFC 4180 quoting, \r\n or \n line
// ends, blank lines skipped, exactly four columns), and encoding/csv
// stays its arbiter: Read recognises only the row real exports consist
// of — four comma-separated runs of 1 to 19 ASCII digits, an optional
// \r, then \n — and parses that in place from the buffered bytes.
// Every other row, and every row that straddles the end of the
// buffered bytes, is handed unconsumed to a csv.Reader on the same
// buffer. FuzzCSVReaderMatchesEncodingCSV holds the two paths to the
// results of the csv.Reader alone on any byte stream.
type CSVReader struct {
	br     *bufio.Reader
	slow   *csv.Reader // consumes from br, whole lines at a time
	lines  int         // lines readDigitsRow consumed, which slow never counted
	header bool        // a first row has parsed, so none later is a header
}

// NewCSVReader returns a reader over the standard CDR CSV format.
func NewCSVReader(r io.Reader) *CSVReader {
	// csv.NewReader wraps its source in bufio.NewReader, which returns a
	// *bufio.Reader whose buffer is at least the default size as it is.
	// The csv.Reader therefore has no buffer of its own: it takes whole
	// lines from br and leaves br at the start of the next row. (Were
	// that to change, rows would vanish into a second buffer and every
	// differential test in csv_diff_test.go would fail.)
	br := bufio.NewReaderSize(r, 1<<16)
	cr := csv.NewReader(br)
	cr.FieldsPerRecord = len(csvHeader)
	cr.ReuseRecord = true
	return &CSVReader{br: br, slow: cr}
}

// Read returns the next record or io.EOF. Malformed rows (wrong
// column count, unparseable fields, failed validation) are reported
// as errors wrapping ErrBadRecord; the reader stays usable and the
// next Read resumes on the following row.
func (c *CSVReader) Read() (Record, error) {
	if rec, ok := c.readDigitsRow(); ok {
		return rec, nil
	}
	return c.readCSVRow()
}

// readDigitsRow decodes the next row if it is wholly buffered, is four
// runs of 1 to 19 digits, and is a valid record; otherwise it consumes
// nothing. It allocates nothing and never reads from the source, so
// errors, refills, end of input and over-long lines are readCSVRow's.
func (c *CSVReader) readDigitsRow() (Record, bool) {
	buf, _ := c.br.Peek(c.br.Buffered())
	var f [4]uint64
	i := 0
	for k := range f {
		if k > 0 {
			if i == len(buf) || buf[i] != ',' {
				return Record{}, false
			}
			i++
		}
		first := i
		var v uint64
		for i < len(buf) && buf[i]-'0' <= 9 {
			v = v*10 + uint64(buf[i]-'0')
			i++
		}
		// 19 digits cannot overflow a uint64; longer runs are left to
		// strconv's range check.
		if n := i - first; n == 0 || n > 19 {
			return Record{}, false
		}
		f[k] = v
	}
	if i < len(buf) && buf[i] == '\r' {
		i++
	}
	if i == len(buf) || buf[i] != '\n' {
		return Record{}, false
	}
	if f[2] > math.MaxInt64 || f[3] > math.MaxInt64/uint64(time.Second) {
		return Record{}, false
	}
	rec := Record{
		Car:      CarID(f[0]),
		Cell:     radio.CellKey(f[1]),
		Start:    time.Unix(int64(f[2]), 0).UTC(),
		Duration: time.Duration(f[3]) * time.Second,
	}
	if rec.Validate() != nil {
		return Record{}, false
	}
	c.br.Discard(i + 1) // cannot fail: the row is buffered
	c.lines++
	c.header = true
	return rec, true
}

// readCSVRow decodes the next row with encoding/csv and strconv.
func (c *CSVReader) readCSVRow() (Record, error) {
	for {
		row, err := c.slow.Read()
		if err != nil {
			var pe *csv.ParseError
			if errors.As(err, &pe) {
				// The message names the line in the file, not among
				// the lines slow happened to read.
				pe.StartLine += c.lines
				pe.Line += c.lines
				return Record{}, fmt.Errorf("cdr: bad csv row: %v: %w", err, ErrBadRecord)
			}
			return Record{}, err
		}
		if !c.header {
			c.header = true
			if isHeaderRow(row) {
				continue
			}
		}
		car, err := strconv.ParseUint(row[0], 10, 64)
		if err != nil {
			return Record{}, fmt.Errorf("cdr: bad car id %q: %w", row[0], ErrBadRecord)
		}
		cell, err := strconv.ParseUint(row[1], 10, 64)
		if err != nil {
			return Record{}, fmt.Errorf("cdr: bad cell %q: %w", row[1], ErrBadRecord)
		}
		start, err := strconv.ParseInt(row[2], 10, 64)
		if err != nil {
			return Record{}, fmt.Errorf("cdr: bad start %q: %w", row[2], ErrBadRecord)
		}
		dur, err := strconv.ParseInt(row[3], 10, 64)
		if err != nil {
			return Record{}, fmt.Errorf("cdr: bad duration %q: %w", row[3], ErrBadRecord)
		}
		// Guard the seconds→Duration multiply: a forged value past
		// ~292 years would wrap int64 and could slip through
		// validation as a positive garbage duration.
		if dur < 0 || dur > math.MaxInt64/int64(time.Second) {
			return Record{}, fmt.Errorf("cdr: duration %q out of range: %w", row[3], ErrBadRecord)
		}
		rec := Record{
			Car:      CarID(car),
			Cell:     radio.CellKey(cell),
			Start:    time.Unix(start, 0).UTC(),
			Duration: time.Duration(dur) * time.Second,
		}
		if err := rec.Validate(); err != nil {
			return Record{}, fmt.Errorf("%v: %w", err, ErrBadRecord)
		}
		return rec, nil
	}
}

// Binary format: a 8-byte magic, then records of fixed 28-byte layout
// (car uint64, cell uint64, start int64 unix seconds, duration uint32
// seconds), all little endian. The format is dense enough for
// hundred-million-record data sets and trivially seekable.
var binMagic = [8]byte{'C', 'C', 'A', 'R', 'C', 'D', 'R', '1'}

const binRecordSize = 8 + 8 + 8 + 4

// OpenFile opens a CDR file with the codec its extension names:
// ".csv" gets the CSV reader, everything else the binary reader. The
// returned closer owns the underlying file.
func OpenFile(path string) (Reader, io.Closer, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	if strings.HasSuffix(path, ".csv") {
		return NewCSVReader(f), f, nil
	}
	return NewBinaryReader(f), f, nil
}

// OpenFiles returns the files' records as one stream, in argument
// order, each file decoded as OpenFile would. Every path is checked up
// front, so a run with a missing input fails before it reads a record;
// after that at most one file is open at a time: a file is opened when
// the one before it is drained, and closed at its end or at the first
// error that is not a skippable ErrBadRecord, which also ends the
// stream. The closer closes the file that is open, if any, and ends
// the stream; calling it again is harmless.
func OpenFiles(paths ...string) (Reader, io.Closer, error) {
	for _, path := range paths {
		if _, err := os.Stat(path); err != nil {
			return nil, nil, err
		}
	}
	fr := &filesReader{paths: paths}
	return fr, fr, nil
}

type filesReader struct {
	paths []string // files not opened yet
	cur   Reader   // the open file's codec; nil between files
	file  io.Closer
	err   error // what ended the stream, returned from then on
}

func (fr *filesReader) Read() (Record, error) {
	for fr.err == nil {
		if fr.cur == nil {
			if len(fr.paths) == 0 {
				fr.err = io.EOF
				break
			}
			fr.cur, fr.file, fr.err = OpenFile(fr.paths[0])
			fr.paths = fr.paths[1:]
			continue
		}
		rec, err := fr.cur.Read()
		if err == nil || errors.Is(err, ErrBadRecord) {
			return rec, err
		}
		fr.closeFile()
		if !errors.Is(err, io.EOF) {
			fr.err = err
		}
	}
	return Record{}, fr.err
}

func (fr *filesReader) closeFile() error {
	if fr.file == nil {
		return nil
	}
	err := fr.file.Close()
	fr.cur, fr.file = nil, nil
	return err
}

func (fr *filesReader) Close() error {
	if fr.err == nil {
		fr.err = ErrClosed
	}
	return fr.closeFile()
}

// BinaryRecordCount returns the number of records a well-formed binary
// CDR file of the given size holds — a cheap total for progress
// estimation. Returns 0 for sizes smaller than the magic header.
func BinaryRecordCount(fileSize int64) int64 {
	if fileSize <= int64(len(binMagic)) {
		return 0
	}
	return (fileSize - int64(len(binMagic))) / binRecordSize
}

// BinaryWriter streams records in the binary CDR format.
type BinaryWriter struct {
	w      *bufio.Writer
	magic  bool
	closed bool
	buf    [binRecordSize]byte
}

// NewBinaryWriter returns a writer emitting the binary CDR format.
func NewBinaryWriter(w io.Writer) *BinaryWriter {
	return &BinaryWriter{w: bufio.NewWriterSize(w, 1<<16)}
}

// Write emits one record.
func (b *BinaryWriter) Write(r Record) error {
	if b.closed {
		return ErrClosed
	}
	if !b.magic {
		if _, err := b.w.Write(binMagic[:]); err != nil {
			return err
		}
		b.magic = true
	}
	secs := int64(r.Duration / time.Second)
	if secs < 0 || secs > int64(^uint32(0)) {
		return fmt.Errorf("cdr: duration %v out of binary range", r.Duration)
	}
	binary.LittleEndian.PutUint64(b.buf[0:], uint64(r.Car))
	binary.LittleEndian.PutUint64(b.buf[8:], uint64(r.Cell))
	binary.LittleEndian.PutUint64(b.buf[16:], uint64(r.Start.Unix()))
	binary.LittleEndian.PutUint32(b.buf[24:], uint32(secs))
	_, err := b.w.Write(b.buf[:])
	return err
}

// Close flushes buffered records. The writer is unusable afterwards.
func (b *BinaryWriter) Close() error {
	if b.closed {
		return ErrClosed
	}
	b.closed = true
	// An empty stream still carries the magic so readers can identify it.
	if !b.magic {
		if _, err := b.w.Write(binMagic[:]); err != nil {
			return err
		}
		b.magic = true
	}
	return b.w.Flush()
}

// BinaryReader streams records from the binary CDR format.
type BinaryReader struct {
	r     *bufio.Reader
	magic bool
	buf   [binRecordSize]byte
}

// NewBinaryReader returns a reader over the binary CDR format.
func NewBinaryReader(r io.Reader) *BinaryReader {
	return &BinaryReader{r: bufio.NewReaderSize(r, 1<<16)}
}

// Read returns the next record or io.EOF. A partial trailing record
// (or header) is reported as an error wrapping ErrTruncated; a record
// with malformed field values wraps ErrBadRecord and — since the
// fixed-size framing keeps the stream aligned — the next Read resumes
// on the following record.
func (b *BinaryReader) Read() (Record, error) {
	if !b.magic {
		var m [8]byte
		if n, err := io.ReadFull(b.r, m[:]); err != nil {
			if errors.Is(err, io.ErrUnexpectedEOF) {
				return Record{}, fmt.Errorf("cdr: binary header cut at %d of %d bytes: %w", n, len(m), ErrTruncated)
			}
			return Record{}, err
		}
		if m != binMagic {
			return Record{}, fmt.Errorf("cdr: bad binary magic %q", m)
		}
		b.magic = true
	}
	if n, err := io.ReadFull(b.r, b.buf[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return Record{}, fmt.Errorf("cdr: binary record cut at %d of %d bytes: %w", n, binRecordSize, ErrTruncated)
		}
		return Record{}, err
	}
	rec := Record{
		Car:      CarID(binary.LittleEndian.Uint64(b.buf[0:])),
		Cell:     radio.CellKey(binary.LittleEndian.Uint64(b.buf[8:])),
		Start:    time.Unix(int64(binary.LittleEndian.Uint64(b.buf[16:])), 0).UTC(),
		Duration: time.Duration(binary.LittleEndian.Uint32(b.buf[24:])) * time.Second,
	}
	if err := rec.Validate(); err != nil {
		return Record{}, fmt.Errorf("%v: %w", err, ErrBadRecord)
	}
	return rec, nil
}
