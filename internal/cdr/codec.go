package cdr

import (
	"bufio"
	"bytes"
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

// owner is the optional test a sharded open (OpenShard) gives both
// codecs: the reader returns only the rows shard of shards owns, by the
// rule OpenShard states, and drops the others as early as it can tell.
// The zero value owns every row.
type owner struct {
	shard, shards int
}

func (o owner) sharded() bool { return o.shards > 1 }

// ownsCar reports whether car hashes into the owner's shard.
func (o owner) ownsCar(car CarID) bool {
	return ShardOfCar(car, o.shards) == o.shard
}

// ownsOrdinal decides a row that names no car — one that did not parse,
// a truncated tail — by its zero-based position among its file's rows.
func (o owner) ownsOrdinal(row int64) bool {
	return row%int64(o.shards) == int64(o.shard)
}

// ScanStats counts the rows a reader framed. Rows is every row of the
// input, whichever way it left the reader: returned as a record,
// returned as an ErrBadRecord or ErrTruncated error, or dropped because
// another shard owns it. Skipped counts the dropped ones, so Rows −
// Skipped is what the reader handed its caller to judge. The CSV header
// and blank lines are not rows.
type ScanStats struct {
	Rows, Skipped int64
}

func (s *ScanStats) add(o ScanStats) {
	s.Rows += o.Rows
	s.Skipped += o.Skipped
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
//
// A sharded reader (OpenShard) also recognises, in the buffered bytes,
// the line it may drop without reading further than its first field:
//
//	1*19DIGIT "," *(any byte but '"' or LF) LF
//
// whose digits hash to another shard. Without a quote a line is exactly
// one row to encoding/csv, whatever else it holds, so nothing after the
// first comma needs parsing to know where the next row starts.
type CSVReader struct {
	br     *bufio.Reader
	slow   *csv.Reader // consumes from br, whole lines at a time
	lines  int         // lines readDigitsRow and judgeRow consumed, which slow never counted
	header bool        // a first row has parsed, so none later is a header
	own    owner
	scan   ScanStats
	// slowLines is the lines slow has consumed and rowLine the line the
	// row returned last starts on, which where reports.
	slowLines, rowLine int
	one                [1]Record
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

// A sharded CSVReader's verdict on the row at the head of its buffer.
type verdict int

const (
	mine      verdict = iota // its digits lead hashes here, or there is no owner test
	foreign                  // its digits lead hashes elsewhere: framed by encoding/csv, then dropped
	skipped                  // foreign, and already discarded unparsed
	undecided                // no digits lead: owned by what encoding/csv makes of it
)

// Read returns the next record or io.EOF. Malformed rows (wrong
// column count, unparseable fields, failed validation) are reported
// as errors wrapping ErrBadRecord; the reader stays usable and the
// next Read resumes on the following row. A sharded reader returns only
// the records and the malformed rows its shard owns.
func (c *CSVReader) Read() (Record, error) { return ReadOne(c, &c.one) }

// ReadBatch reads records into dst as Read would; see BatchReader. Once
// it holds a record it takes only rows the fast path decodes, or a
// sharded reader drops, from the bytes already buffered: the row after
// them is the next call's, read as Read reads it.
func (c *CSVReader) ReadBatch(dst []Record) (int, error) {
	n := 0
	for n < len(dst) {
		v := mine
		if c.own.sharded() {
			var err error
			if v, err = c.judgeRow(n == 0); err != nil {
				return n, err
			}
			if v == skipped {
				continue
			}
		}
		if v == mine {
			if rec, ok := c.readDigitsRow(); ok {
				dst[n] = rec
				n++
				continue
			}
		}
		if n > 0 {
			return n, nil // encoding/csv may have to wait for the rest of the row
		}
		rec, header, err := c.readCSVRow()
		if header {
			continue
		}
		if err != nil && !errors.Is(err, ErrBadRecord) {
			return 0, err // end of input or the source's own error: every shard's
		}
		c.scan.Rows++
		if v == mine || v == undecided &&
			(err == nil && c.own.ownsCar(rec.Car) || err != nil && c.own.ownsOrdinal(c.scan.Rows-1)) {
			if err != nil {
				return 0, err
			}
			dst[0] = rec
			n = 1
			continue
		}
		c.scan.Skipped++
	}
	return n, nil
}

// maxLead is the longest digits lead: 19 digits and their comma.
const maxLead = 20

// judgeRow applies the owner test to the row at the head of the buffer.
// A row that opens with 1 to 19 digits and a comma belongs to the shard
// those digits hash to, whatever follows them; a foreign one that is
// wholly buffered and holds no quote is discarded here, counted as a
// line, a row and a skip. Told not to wait, it calls a row whose lead is
// not wholly buffered undecided instead of reading more.
func (c *CSVReader) judgeRow(wait bool) (verdict, error) {
	var buf []byte
	for {
		if c.br.Buffered() < maxLead {
			if !wait {
				return undecided, nil
			}
			// Whether a row has a lead must not depend on where the
			// buffered bytes happen to end. A short Peek takes the source's
			// error off the bufio.Reader: io.EOF will be met again by
			// whoever reads next, anything else is handed on here.
			if _, err := c.br.Peek(maxLead); err != nil && err != io.EOF {
				return 0, err
			}
		}
		buf, _ = c.br.Peek(c.br.Buffered())
		// A blank line is no row: encoding/csv would pass over it on its
		// way to the next one, whose lead is what counts.
		n := 0
		if len(buf) > 0 && buf[0] == '\n' {
			n = 1
		} else if len(buf) > 1 && buf[0] == '\r' && buf[1] == '\n' {
			n = 2
		}
		if n == 0 {
			break
		}
		c.br.Discard(n)
		c.lines++
	}
	var car uint64
	i := 0
	for i < len(buf) && i < maxLead-1 && buf[i]-'0' <= 9 {
		car = car*10 + uint64(buf[i]-'0')
		i++
	}
	if i == 0 || i == len(buf) || buf[i] != ',' {
		return undecided, nil
	}
	if c.own.ownsCar(CarID(car)) {
		return mine, nil
	}
	rest := buf[i:] // from the lead's comma
	end := bytes.IndexByte(rest, '\n')
	if end < 0 || bytes.IndexByte(rest[:end], '"') >= 0 {
		return foreign, nil
	}
	// What readCSVRow would have learnt from this line: four fields parse
	// as a first row, any other count is a ParseError that leaves a later
	// header line still to be recognised.
	if !c.header && bytes.Count(rest[:end], []byte{','}) == len(csvHeader)-1 {
		c.header = true
	}
	c.br.Discard(i + end + 1) // cannot fail: the line is buffered
	c.lines++
	c.scan.Rows++
	c.scan.Skipped++
	return skipped, nil
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
	c.rowLine = c.lines + c.slowLines
	c.scan.Rows++
	c.header = true
	return rec, true
}

// readCSVRow decodes the next row with encoding/csv and strconv. header
// reports the one row that yields nothing: a first row that is the
// header line.
func (c *CSVReader) readCSVRow() (rec Record, header bool, err error) {
	row, err := c.slow.Read()
	if err != nil {
		var pe *csv.ParseError
		if errors.As(err, &pe) {
			c.rowLine, c.slowLines = pe.StartLine+c.lines, pe.Line
			if pe.Err == csv.ErrFieldCount {
				c.slowLines = c.lastFieldEnd(row) // Line is where such a row starts
			}
			// The message names the line in the file, not among
			// the lines slow happened to read.
			pe.StartLine += c.lines
			pe.Line += c.lines
			return Record{}, false, fmt.Errorf("cdr: bad csv row: %v: %w", err, ErrBadRecord)
		}
		return Record{}, false, err
	}
	start, _ := c.slow.FieldPos(0)
	c.rowLine, c.slowLines = start+c.lines, c.lastFieldEnd(row)
	if !c.header {
		c.header = true
		if isHeaderRow(row) {
			return Record{}, true, nil
		}
	}
	car, err := strconv.ParseUint(row[0], 10, 64)
	if err != nil {
		return Record{}, false, fmt.Errorf("cdr: bad car id %q: %w", row[0], ErrBadRecord)
	}
	cell, err := strconv.ParseUint(row[1], 10, 64)
	if err != nil {
		return Record{}, false, fmt.Errorf("cdr: bad cell %q: %w", row[1], ErrBadRecord)
	}
	startUnix, err := strconv.ParseInt(row[2], 10, 64)
	if err != nil {
		return Record{}, false, fmt.Errorf("cdr: bad start %q: %w", row[2], ErrBadRecord)
	}
	dur, err := strconv.ParseInt(row[3], 10, 64)
	if err != nil {
		return Record{}, false, fmt.Errorf("cdr: bad duration %q: %w", row[3], ErrBadRecord)
	}
	// Guard the seconds→Duration multiply: a forged value past
	// ~292 years would wrap int64 and could slip through
	// validation as a positive garbage duration.
	if dur < 0 || dur > math.MaxInt64/int64(time.Second) {
		return Record{}, false, fmt.Errorf("cdr: duration %q out of range: %w", row[3], ErrBadRecord)
	}
	rec = Record{
		Car:      CarID(car),
		Cell:     radio.CellKey(cell),
		Start:    time.Unix(startUnix, 0).UTC(),
		Duration: time.Duration(dur) * time.Second,
	}
	if err := rec.Validate(); err != nil {
		return Record{}, false, fmt.Errorf("%v: %w", err, ErrBadRecord)
	}
	return rec, false, nil
}

// lastFieldEnd returns the line, in slow's count, that the row slow
// just returned ends on: where its last field starts plus the line
// breaks a quoted last field holds.
func (c *CSVReader) lastFieldEnd(row []string) int {
	last := len(row) - 1
	line, _ := c.slow.FieldPos(last)
	return line + strings.Count(row[last], "\n")
}

func (c *CSVReader) scanStats() ScanStats { return c.scan }

func (c *CSVReader) where() string { return "line " + strconv.Itoa(c.rowLine) }

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
	r, f, err := openFile(path, owner{})
	if err != nil {
		return nil, nil, err
	}
	return r, f, nil
}

// fileCodec is what FilesReader asks of the codec on its open file.
type fileCodec interface {
	BatchReader
	scanStats() ScanStats
	// where names the row framed last within the file: a CSV line, a
	// binary record's ordinal.
	where() string
}

func openFile(path string, own owner) (fileCodec, io.Closer, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	if strings.HasSuffix(path, ".csv") {
		r := NewCSVReader(f)
		r.own = own
		return r, f, nil
	}
	r := NewBinaryReader(f)
	r.own = own
	return r, f, nil
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
	fr, err := OpenShard(0, 1, paths...)
	if err != nil {
		return nil, nil, err
	}
	return fr, fr, nil
}

// OpenShard is OpenFiles for one of shards car-hash workers over the
// same files: the stream holds the rows shard owns and no others, and
// OpenFiles is its (0, 1) case. Every row has exactly one owner, and
// every worker reaches the same verdict from the bytes alone, wherever
// its buffer happens to end:
//
//   - A CSV row that opens with 1 to 19 digits and a comma belongs to
//     ShardOfCar of those digits, whether or not the rest of it parses.
//   - Any other CSV row is read by encoding/csv in every worker. If it
//     yields a record it belongs to ShardOfCar(rec.Car); if it yields an
//     ErrBadRecord it belongs to shard (row ordinal in its file) mod shards.
//   - A binary frame belongs to the shard of its car field; a truncated
//     tail belongs to shard (frame ordinal in its file) mod shards. It
//     ends the stream for every worker, as it does in OpenFiles, but only
//     its owner is told ErrTruncated.
//
// A foreign row is dropped before anything past its car is parsed where
// the codec can tell in place (see CSVReader, BinaryReader), otherwise
// after the ordinary decode; either way the caller never sees it, so a
// ResilientReader above judges each row once, in the worker that owns
// it, and the workers' counts add up to a single reader's. The source's
// own errors are not rows: every worker meets them.
func OpenShard(shard, shards int, paths ...string) (*FilesReader, error) {
	if shards < 1 || shard < 0 || shard >= shards {
		return nil, fmt.Errorf("cdr: shard %d outside [0, %d)", shard, shards)
	}
	for _, path := range paths {
		if _, err := os.Stat(path); err != nil {
			return nil, err
		}
	}
	return &FilesReader{own: owner{shard, shards}, paths: paths}, nil
}

// FilesReader is the stream OpenFiles and OpenShard return: a Reader
// and its io.Closer, which can also count the rows it framed (Scan) and
// place the last of them (Pos).
type FilesReader struct {
	own   owner
	paths []string  // files not opened yet
	cur   fileCodec // the open file's codec; nil between files
	file  io.Closer
	err   error // what ended the stream, returned from then on

	// name is the file opened last; done and at are what the codecs of
	// the files closed so far counted and where the last of them stopped.
	name string
	done ScanStats
	at   string
	one  [1]Record
}

// Read returns the stream's next record, or the ErrBadRecord the next
// row amounts to, or what ended the stream: io.EOF after the last file,
// else the first error that is neither.
func (fr *FilesReader) Read() (Record, error) { return ReadOne(fr, &fr.one) }

// ReadBatch reads records into dst as Read would; see BatchReader. A
// batch comes from one file: holding records, it does not open the
// next, since opening a FIFO waits for its writer. Pos and Scan are then
// Read's, except that a sharded stream may have dropped foreign rows
// after the batch's last record.
func (fr *FilesReader) ReadBatch(dst []Record) (int, error) {
	for fr.err == nil {
		if fr.cur == nil {
			if len(fr.paths) == 0 {
				fr.err = io.EOF
				break
			}
			fr.name = fr.paths[0]
			fr.cur, fr.file, fr.err = openFile(fr.name, fr.own)
			fr.paths = fr.paths[1:]
			continue
		}
		n, err := fr.cur.ReadBatch(dst)
		if err == nil || errors.Is(err, ErrBadRecord) {
			return n, err
		}
		fr.closeFile()
		switch {
		case err == errForeignTail:
			fr.err = io.EOF // where the tail's owner stops on ErrTruncated
		case !errors.Is(err, io.EOF):
			fr.err = err
		}
		if n > 0 {
			return n, nil
		}
	}
	return 0, fr.err
}

// Scan returns the row counts of everything read so far.
func (fr *FilesReader) Scan() ScanStats {
	st := fr.done
	if fr.cur != nil {
		st.add(fr.cur.scanStats())
	}
	return st
}

// Pos names the row the last Read framed, for a message about it: its
// file and the line (CSV) or record ordinal (binary) it starts on.
func (fr *FilesReader) Pos() string {
	at := fr.at
	if fr.cur != nil {
		at = fr.cur.where()
	}
	return fr.name + ": " + at
}

func (fr *FilesReader) closeFile() error {
	if fr.file == nil {
		return nil
	}
	fr.done.add(fr.cur.scanStats())
	fr.at = fr.cur.where()
	err := fr.file.Close()
	fr.cur, fr.file = nil, nil
	return err
}

// Close closes the file that is open, if any, and ends the stream.
func (fr *FilesReader) Close() error {
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

// BinaryReader streams records from the binary CDR format. A sharded
// reader (OpenShard) decides a frame by its car field alone and builds
// no Record from one that is another shard's.
type BinaryReader struct {
	r     *bufio.Reader
	magic bool
	own   owner
	scan  ScanStats
	one   [1]Record
}

// NewBinaryReader returns a reader over the binary CDR format.
func NewBinaryReader(r io.Reader) *BinaryReader {
	return &BinaryReader{r: bufio.NewReaderSize(r, 1<<16)}
}

// errForeignTail is what a sharded BinaryReader returns for a truncated
// tail another shard owns: the end of the stream, and not of the file
// alone, without the report that is the owner's to make.
var errForeignTail = errors.New("cdr: truncated tail owned by another shard")

// Read returns the next record or io.EOF. A partial trailing record
// (or header) is reported as an error wrapping ErrTruncated; a record
// with malformed field values wraps ErrBadRecord and — since the
// fixed-size framing keeps the stream aligned — the next Read resumes
// on the following record.
func (b *BinaryReader) Read() (Record, error) { return ReadOne(b, &b.one) }

// ReadBatch reads records into dst as Read would; see BatchReader. It
// decodes the frames wholly buffered where they lie, and reads from the
// source only for a first frame.
func (b *BinaryReader) ReadBatch(dst []Record) (int, error) {
	if !b.magic {
		var m [8]byte
		if n, err := io.ReadFull(b.r, m[:]); err != nil {
			if errors.Is(err, io.ErrUnexpectedEOF) {
				return 0, b.truncated("header", n, len(m))
			}
			return 0, err
		}
		if m != binMagic {
			return 0, fmt.Errorf("cdr: bad binary magic %q", m)
		}
		b.magic = true
	}
	n := 0
	for n < len(dst) {
		whole := b.r.Buffered() / binRecordSize * binRecordSize
		if whole == 0 && n > 0 {
			return n, nil
		}
		buf, err := b.r.Peek(max(binRecordSize, min(whole, (len(dst)-n)*binRecordSize)))
		if err != nil {
			b.r.Discard(len(buf)) // as io.ReadFull would have consumed them
			switch {
			case err == io.EOF && len(buf) > 0:
				return 0, b.truncated("record", len(buf), binRecordSize)
			case err == io.EOF:
				return 0, io.EOF
			}
			return 0, err
		}
		used := 0
		for ; used < len(buf) && n < len(dst); used += binRecordSize {
			p := buf[used : used+binRecordSize]
			b.scan.Rows++
			car := CarID(binary.LittleEndian.Uint64(p[0:]))
			if b.own.sharded() && !b.own.ownsCar(car) {
				b.scan.Skipped++
				continue
			}
			rec := &dst[n]
			*rec = Record{
				Car:      car,
				Cell:     radio.CellKey(binary.LittleEndian.Uint64(p[8:])),
				Start:    time.Unix(int64(binary.LittleEndian.Uint64(p[16:])), 0).UTC(),
				Duration: time.Duration(binary.LittleEndian.Uint32(p[24:])) * time.Second,
			}
			if err := rec.Validate(); err != nil {
				b.r.Discard(used + binRecordSize)
				return n, fmt.Errorf("%v: %w", err, ErrBadRecord)
			}
			n++
		}
		b.r.Discard(used)
	}
	return n, nil
}

// truncated frames the partial tail that ends the file: a row of its
// own, the shard's by its ordinal.
func (b *BinaryReader) truncated(what string, n, size int) error {
	b.scan.Rows++
	if b.own.sharded() && !b.own.ownsOrdinal(b.scan.Rows-1) {
		b.scan.Skipped++
		return errForeignTail
	}
	return fmt.Errorf("cdr: binary %s cut at %d of %d bytes: %w", what, n, size, ErrTruncated)
}

func (b *BinaryReader) scanStats() ScanStats { return b.scan }

func (b *BinaryReader) where() string { return "record " + strconv.FormatInt(b.scan.Rows, 10) }
