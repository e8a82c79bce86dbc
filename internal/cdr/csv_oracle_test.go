package cdr

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"time"

	"cellcars/internal/radio"
)

// The CSV codec as it was before CSVReader grew its digits-only fast
// path and CSVWriter stopped going through encoding/csv, moved here
// verbatim (types renamed) as the reference the differential tests
// compare against. Do not "improve" it: its value is that it is
// encoding/csv and strconv and nothing else.

type oracleCSVWriter struct {
	w      *csv.Writer
	header bool
}

func newOracleCSVWriter(w io.Writer) *oracleCSVWriter {
	return &oracleCSVWriter{w: csv.NewWriter(w)}
}

func (c *oracleCSVWriter) Write(r Record) error {
	if !c.header {
		if err := c.w.Write(csvHeader); err != nil {
			return err
		}
		c.header = true
	}
	row := []string{
		strconv.FormatUint(uint64(r.Car), 10),
		strconv.FormatUint(uint64(r.Cell), 10),
		strconv.FormatInt(r.Start.Unix(), 10),
		strconv.FormatInt(int64(r.Duration/time.Second), 10),
	}
	return c.w.Write(row)
}

func (c *oracleCSVWriter) Close() error {
	c.w.Flush()
	return c.w.Error()
}

type oracleCSVReader struct {
	r      *csv.Reader
	header bool
}

func newOracleCSVReader(r io.Reader) *oracleCSVReader {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(csvHeader)
	cr.ReuseRecord = true
	return &oracleCSVReader{r: cr}
}

func (c *oracleCSVReader) Read() (Record, error) {
	for {
		row, err := c.r.Read()
		if err != nil {
			var pe *csv.ParseError
			if errors.As(err, &pe) {
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
