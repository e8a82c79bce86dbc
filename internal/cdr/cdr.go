// Package cdr defines the Call Detail Record substrate: the radio-level
// connection record schema used throughout the pipeline, streaming
// readers and writers in CSV and binary formats, the resilient ingest
// layer every binary reads through, and car-hash sharding.
//
// A record describes one radio-level connection: which car, which cell
// (base station/sector/carrier), when it started, and how long it
// lasted. As in the paper's data set (§3), records carry no data
// volumes and no personal information.
package cdr

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"slices"
	"time"

	"cellcars/internal/radio"
)

// CarID is an anonymized car identifier.
type CarID uint64

// Record is one radio-level connection event.
type Record struct {
	Car      CarID
	Cell     radio.CellKey
	Start    time.Time
	Duration time.Duration
}

// End returns the instant the connection ended.
func (r Record) End() time.Time { return r.Start.Add(r.Duration) }

// Validate checks structural invariants: a known carrier, a
// non-negative duration, and a non-zero start.
func (r Record) Validate() error {
	if !r.Cell.Carrier().Valid() {
		return fmt.Errorf("cdr: record for car %d has invalid carrier %d", r.Car, r.Cell.Carrier())
	}
	if r.Duration < 0 {
		return fmt.Errorf("cdr: record for car %d has negative duration %v", r.Car, r.Duration)
	}
	if r.Start.IsZero() {
		return fmt.Errorf("cdr: record for car %d has zero start time", r.Car)
	}
	return nil
}

// Before orders records by start time, breaking ties by car then cell,
// giving a total deterministic order.
func (r Record) Before(o Record) bool { return compare(r, o) < 0 }

// compare is Before as a three-way comparison, reading each start once.
func compare(a, b Record) int {
	if c := a.Start.Compare(b.Start); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Car, b.Car); c != 0 {
		return c
	}
	return cmp.Compare(a.Cell, b.Cell)
}

// Reader is the streaming source abstraction for CDR records. Read
// returns io.EOF after the last record.
type Reader interface {
	Read() (Record, error)
}

// BatchReader is a Reader that hands over many records per call; every
// reader of this package is one, and its Read is its ReadBatch of one.
//
// ReadBatch fills dst[:n] with the next n records Read would have
// returned. A non-nil err is what Read would have returned for the row
// after them (ErrBadRecord, ErrTruncated, io.EOF, a source error): a
// batch stops at the first row that is not a record. With len(dst) > 0,
// n == 0 comes with an error. Once it holds a record a batch read never
// waits for more input: it returns when the buffered bytes run out, so
// a FIFO fed an hour at a time gets each hour through at once.
type BatchReader interface {
	Reader
	ReadBatch(dst []Record) (n int, err error)
}

// ReadBatch reads a batch from r: through its own ReadBatch when it is a
// BatchReader, else as the one record a Read returns.
func ReadBatch(r Reader, dst []Record) (int, error) {
	if b, ok := r.(BatchReader); ok {
		return b.ReadBatch(dst)
	}
	if len(dst) == 0 {
		return 0, nil
	}
	var err error
	if dst[0], err = r.Read(); err != nil {
		return 0, err
	}
	return 1, nil
}

// ReadOne is a Read over r's own ReadBatch, through the scratch one: what
// a BatchReader's Read is.
func ReadOne(r BatchReader, one *[1]Record) (Record, error) {
	if n, err := r.ReadBatch(one[:]); n == 0 {
		return Record{}, err
	}
	return one[0], nil
}

// skipBatch is how many records ReadAll and Skip ask for at a time.
const skipBatch = 512

// Writer is the streaming sink abstraction for CDR records.
type Writer interface {
	Write(Record) error
}

// ErrClosed is returned by operations on a closed reader or writer.
var ErrClosed = errors.New("cdr: closed")

// SliceReader streams records from an in-memory slice.
type SliceReader struct {
	records []Record
	pos     int
	one     [1]Record
}

// NewSliceReader returns a Reader over the given records. The slice is
// not copied; callers must not mutate it while reading.
func NewSliceReader(records []Record) *SliceReader {
	return &SliceReader{records: records}
}

// Read returns the next record or io.EOF.
func (s *SliceReader) Read() (Record, error) { return ReadOne(s, &s.one) }

// ReadBatch copies the next records into dst; see BatchReader.
func (s *SliceReader) ReadBatch(dst []Record) (int, error) {
	n := copy(dst, s.records[s.pos:])
	s.pos += n
	if n == 0 && len(dst) > 0 {
		return 0, io.EOF
	}
	return n, nil
}

// SliceWriter collects records into memory.
type SliceWriter struct {
	Records []Record
}

// Write appends the record.
func (s *SliceWriter) Write(r Record) error {
	s.Records = append(s.Records, r)
	return nil
}

// ReadAll drains a reader into a slice.
func ReadAll(r Reader) ([]Record, error) {
	var out []Record
	buf := make([]Record, skipBatch)
	for {
		n, err := ReadBatch(r, buf)
		out = append(out, buf[:n]...)
		if err != nil {
			if errors.Is(err, io.EOF) {
				return out, nil
			}
			return out, err
		}
	}
}

// Skip consumes and discards n records from r — the replay fast-path
// a checkpoint resume uses to advance a freshly opened stream to its
// watermark. A stream that ends before n records is reported as an
// error wrapping ErrTruncated: resuming past the end of the input
// means the checkpoint and the data file do not belong together.
func Skip(r Reader, n int64) error {
	buf := make([]Record, min(max(n, 0), skipBatch))
	for i := int64(0); i < n; {
		k, err := ReadBatch(r, buf[:min(n-i, skipBatch)])
		i += int64(k)
		if err != nil {
			if errors.Is(err, io.EOF) {
				return fmt.Errorf("cdr: stream ended after %d of %d skipped records: %w", i, n, ErrTruncated)
			}
			return err
		}
	}
	return nil
}

// WriteAll writes every record to w.
func WriteAll(w Writer, records []Record) error {
	for _, r := range records {
		if err := w.Write(r); err != nil {
			return err
		}
	}
	return nil
}

// Sort orders records in place by (start, car, cell). It is not stable,
// and generated fleets hold records equal under that order (same start,
// car and cell, different durations), so where pdqsort puts them under
// these comparisons is part of every file cargen writes; internal/synth's
// golden test pins it.
func Sort(records []Record) {
	slices.SortFunc(records, compare)
}

// FilterFunc adapts a reader to drop records for which keep returns
// false.
func FilterFunc(r Reader, keep func(Record) bool) Reader {
	return &filterReader{r: r, keep: keep}
}

type filterReader struct {
	r    Reader
	keep func(Record) bool
}

func (f *filterReader) Read() (Record, error) {
	for {
		rec, err := f.r.Read()
		if err != nil {
			return Record{}, err
		}
		if f.keep(rec) {
			return rec, nil
		}
	}
}
