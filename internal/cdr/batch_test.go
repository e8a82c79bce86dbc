package cdr

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"cellcars/internal/radio"
)

// batchSizes returns a deterministic run of batch sizes from 1 to 600
// drawn from seed.
func batchSizes(seed uint64) func() int {
	return func() int {
		seed = seed*6364136223846793005 + 1442695040888963407
		return 1 + int(seed>>33)%600
	}
}

// scanBatches is scanAll through ReadBatch, the sizes drawn from next. A
// batch's items carry the reader's row count and place only where Read
// would have left them: on an error, and, unless the reader is sharded,
// on the last record of a batch that ended without one. (A sharded
// reader may drop foreign rows after that record in the same call.) The
// others have row -1 and no place.
func scanBatches(t *testing.T, r fileCodec, next func() int, limit int) ([]scanned, error) {
	t.Helper()
	var out []scanned
	dst := make([]Record, 600)
	for i := 0; i < limit; i++ {
		n, err := r.ReadBatch(dst[:next()])
		if n == 0 && err == nil {
			t.Fatal("ReadBatch returned no records and no error")
		}
		for k, rec := range dst[:n] {
			it := scanned{row: -1, rec: rec}
			if k == n-1 && err == nil && r.scanStats().Skipped == 0 {
				it.row, it.at = r.scanStats().Rows, r.where()
			}
			out = append(out, it)
		}
		switch {
		case err == nil:
		case errors.Is(err, ErrBadRecord), errors.Is(err, ErrTruncated):
			out = append(out, scanned{row: r.scanStats().Rows, err: err.Error(), at: r.where()})
		default:
			return out, err
		}
	}
	t.Fatalf("reader did not end within %d batches", limit)
	return nil, nil
}

// checkBatchesMatchRead drains one reader with Read and a twin with
// ReadBatch at the sizes next draws, and fails unless they return the
// same records and errors in the same order, place them alike, end
// alike and framed the same rows.
func checkBatchesMatchRead(t *testing.T, open func() fileCodec, next func() int, limit int) {
	t.Helper()
	one, batched := open(), open()
	want, wantEnd := scanAll(t, one, limit)
	got, end := scanBatches(t, batched, next, limit)
	if fmt.Sprint(end) != fmt.Sprint(wantEnd) {
		t.Fatalf("ReadBatch ended with %v, Read with %v", end, wantEnd)
	}
	if len(got) != len(want) {
		t.Fatalf("ReadBatch returned %d items, Read %d", len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		if g.row < 0 {
			w.row, w.at = -1, ""
		}
		if g != w {
			t.Fatalf("item %d: ReadBatch %+v, Read %+v", i, g, w)
		}
	}
	if g, w := batched.scanStats(), one.scanStats(); g != w {
		t.Fatalf("ReadBatch framed %+v, Read %+v", g, w)
	}
	if g, w := batched.where(), one.where(); g != w {
		t.Fatalf("ReadBatch ends at %s, Read at %s", g, w)
	}
}

// TestFilesReaderBatchesMatchRead holds FilesReader's ReadBatch to its
// Read across files of both codecs, bad rows and a torn tail, whole and
// sharded: the same records and errors, Pos and Scan after each error
// and at the end, and unsharded after every batch.
func TestFilesReaderBatchesMatchRead(t *testing.T) {
	paths, _ := writeInputs(t)
	paths = append(paths, writeFaulty(t, 3000, 97))
	torn := encodeBinary(t, randomRecords(700, 5))
	tornPath := filepath.Join(t.TempDir(), "torn.cdr")
	if err := os.WriteFile(tornPath, torn[:len(torn)-9], 0o644); err != nil {
		t.Fatal(err)
	}
	paths = append(paths, tornPath)
	for _, shards := range []int{1, 3} {
		for seed := uint64(0); seed < 4; seed++ {
			for s := 0; s < shards; s++ {
				open := func() *FilesReader {
					fr, err := OpenShard(s, shards, paths...)
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(func() { fr.Close() })
					return fr
				}
				one, batched := open(), open()
				next := batchSizes(seed)
				dst := make([]Record, 600)
				for {
					size := next()
					n, err := batched.ReadBatch(dst[:size])
					if n == 0 && err == nil {
						t.Fatal("ReadBatch returned no records and no error")
					}
					for k := 0; k < n; k++ {
						rec, rerr := one.Read()
						if rerr != nil || rec != dst[k] {
							t.Fatalf("shard %d/%d: batch record %d is %+v, Read gives %+v, %v", s, shards, k, dst[k], rec, rerr)
						}
					}
					if err != nil {
						if _, rerr := one.Read(); fmt.Sprint(rerr) != fmt.Sprint(err) {
							t.Fatalf("shard %d/%d: ReadBatch error %v, Read error %v", s, shards, err, rerr)
						}
					}
					if (shards == 1 || err != nil) && (batched.Pos() != one.Pos() || batched.Scan() != one.Scan()) {
						t.Fatalf("shard %d/%d: ReadBatch at %s %+v, Read at %s %+v", s, shards, batched.Pos(), batched.Scan(), one.Pos(), one.Scan())
					}
					if err != nil && !errors.Is(err, ErrBadRecord) {
						break
					}
				}
			}
		}
	}
}

// resilientFaults is one fuzzed ingest: records drawn from data, written
// by one codec, broken by chaos.go's injectors, and read back through a
// ResilientReader with every check on.
type resilientFaults struct {
	data  []byte
	flags uint8
	at    uint16 // where the byte-level fault lands
}

// records draws records from data, five bytes each, over few cars, cells
// and seconds, so that duplicates, regressions and rows outside the time
// window all occur.
func (f resilientFaults) records() []Record {
	var out []Record
	for b := f.data; len(b) >= 5; b = b[5:] {
		out = append(out, Record{
			Car:      CarID(b[0] % 8),
			Cell:     radio.MakeCellKey(radio.BSID(b[1]%4), 0, radio.CarrierID(b[1]>>6+1)),
			Start:    t0.Add(time.Duration(int(b[2])|int(b[3])<<8) * time.Second),
			Duration: time.Duration(b[4]) * time.Second,
		})
	}
	return out
}

// open builds the fault stack afresh: the bytes, a field broken where the
// flags say, a torn tail or a fault after f.at bytes — a source cut
// short with io.ErrUnexpectedEOF or a failed disk — and on top, optionally, ChaosReader's record-level faults, which
// leave the ResilientReader a source with no ReadBatch of its own.
func (f resilientFaults) open(t *testing.T, sink QuarantineSink) *ResilientReader {
	recs := f.records()
	var raw []byte
	csv := f.flags&1 != 0
	if csv {
		raw = encodeCSV(t, recs)
		if f.flags&2 != 0 && len(raw) > 0 {
			raw = bytes.Clone(raw)
			raw[int(f.at)%len(raw)] = 'x' // a bad field, or a broken header
		}
	} else {
		raw = encodeBinary(t, recs)
	}
	var src io.Reader = chunkReader{bytes.NewReader(raw), int(f.at) % 97}
	switch (f.flags >> 2) & 3 {
	case 1:
		src = NewTruncateReader(src, int64(f.at)%int64(len(raw)+1))
	case 2:
		src = NewFaultReader(src, int64(f.at)%int64(len(raw)+1), io.ErrUnexpectedEOF)
	case 3:
		src = NewFaultReader(src, int64(f.at)%int64(len(raw)+1), errors.New("disk gone"))
	}
	if !csv && f.flags&2 != 0 {
		src = NewFlipReader(src, 0.01, uint64(f.at))
	}
	var r Reader
	if csv {
		r = NewCSVReader(src)
	} else {
		r = NewBinaryReader(src)
	}
	if f.flags&16 != 0 {
		r = NewChaosReader(r, ChaosConfig{Seed: uint64(f.at), CorruptProb: 0.05, DuplicateProb: 0.05, ReorderProb: 0.05})
	}
	cfg := ResilientConfig{
		Sink:            sink,
		FlagDuplicates:  true,
		FlagRegressions: true,
		MinStart:        t0.Add(time.Minute),
		MaxStart:        t0.Add(18 * time.Hour),
		Strict:          f.flags&32 != 0,
		MaxBadFrac:      -1,
	}
	if f.flags&64 != 0 {
		cfg.MaxBadFrac, cfg.MinRecords = 0.2, 10
	}
	return NewResilientReader(r, cfg)
}

// ingested is everything a ResilientReader drain shows.
type ingested struct {
	recs  []Record
	sunk  []string
	stats IngestStats
	end   string
}

// FuzzResilientReadBatchMatchesRead: on any faults chaos.go can make, a
// ResilientReader drained through ReadBatch at any batch sizes delivers
// what one drained through Read does, sinks the same entries (index,
// class, record, cause) and ends with the same stats and error.
func FuzzResilientReadBatchMatchesRead(f *testing.F) {
	seed := make([]byte, 5*80)
	for i := range seed {
		seed[i] = byte(i * 7 % 251)
	}
	for _, flags := range []uint8{0, 1, 3, 4, 5, 9, 13, 17, 19, 33, 35, 64 | 3, 64 | 2} {
		f.Add(seed, flags, uint16(777), uint64(flags))
	}
	f.Fuzz(func(t *testing.T, data []byte, flags uint8, at uint16, sizes uint64) {
		faults := resilientFaults{data: data, flags: flags, at: at}
		drain := func(read func(r *ResilientReader) ([]Record, error)) ingested {
			sink := &memSink{}
			r := faults.open(t, sink)
			recs, err := read(r)
			var out ingested
			out.recs, out.stats, out.end = recs, r.Stats(), fmt.Sprint(err)
			for _, q := range sink.got {
				out.sunk = append(out.sunk, fmt.Sprintf("%d %v %+v %v", q.Index, q.Class, q.Record, q.Err))
			}
			return out
		}
		limit := len(data) + 64
		want := drain(func(r *ResilientReader) ([]Record, error) {
			var out []Record
			for i := 0; i < limit; i++ {
				rec, err := r.Read()
				if err != nil {
					return out, err
				}
				out = append(out, rec)
			}
			return out, errors.New("no end")
		})
		next := batchSizes(sizes)
		got := drain(func(r *ResilientReader) ([]Record, error) {
			var out []Record
			dst := make([]Record, 600)
			for i := 0; i < limit; i++ {
				n, err := r.ReadBatch(dst[:next()])
				if n == 0 && err == nil {
					t.Fatal("ReadBatch returned no records and no error")
				}
				out = append(out, dst[:n]...)
				if err != nil {
					return out, err
				}
			}
			return out, errors.New("no end")
		})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("ReadBatch:\n%+v\nRead:\n%+v", got, want)
		}
	})
}

// pipeRows starts a writer that writes data to w in one write and then
// holds the pipe open until the test ends.
func pipeRows(t *testing.T, w io.WriteCloser, data []byte) {
	release := make(chan struct{})
	go func() {
		w.Write(data)
		<-release
		w.Close()
	}()
	t.Cleanup(func() { close(release) })
}

// readBatchWithin calls r.ReadBatch on 512 records and fails if it has
// not returned within a few seconds: it waited for input that was not
// coming.
func readBatchWithin(t *testing.T, r BatchReader) int {
	t.Helper()
	type result struct {
		n   int
		err error
	}
	done := make(chan result, 1)
	go func() {
		n, err := r.ReadBatch(make([]Record, 512))
		done <- result{n, err}
	}()
	select {
	case res := <-done:
		if res.err != nil {
			t.Fatalf("ReadBatch: %v", res.err)
		}
		return res.n
	case <-time.After(5 * time.Second):
		t.Fatal("ReadBatch holding records waited for more input")
		return 0
	}
}

// TestReadBatchDoesNotWaitOnceItHoldsARecord: a source that delivers
// three records and then blocks, as a FIFO fed an hour at a time does,
// gets them through at once — from each codec, from FilesReader over a
// FIFO, and from a ResilientReader over each.
func TestReadBatchDoesNotWaitOnceItHoldsARecord(t *testing.T) {
	three := randomRecords(3, 6)
	for _, tc := range []struct {
		name string
		data []byte
		open func(io.Reader) BatchReader
	}{
		{"binary", encodeBinary(t, three), func(r io.Reader) BatchReader { return NewBinaryReader(r) }},
		{"csv", encodeCSV(t, three), func(r io.Reader) BatchReader { return NewCSVReader(r) }},
		{"resilient", encodeBinary(t, three), func(r io.Reader) BatchReader {
			return NewResilientReader(NewBinaryReader(r), ResilientConfig{})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pr, pw := io.Pipe()
			pipeRows(t, pw, tc.data)
			if n := readBatchWithin(t, tc.open(pr)); n != 3 {
				t.Fatalf("ReadBatch returned %d records, want 3", n)
			}
		})
	}
	for _, tc := range []struct {
		name string
		wrap func(*FilesReader) BatchReader
	}{
		{"files", func(fr *FilesReader) BatchReader { return fr }},
		{"resilient-files", func(fr *FilesReader) BatchReader { return NewResilientReader(fr, ResilientConfig{}) }},
	} {
		for _, ext := range []string{".cdr", ".csv"} {
			t.Run(tc.name+ext, func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "feed"+ext)
				if err := syscall.Mkfifo(path, 0o600); err != nil {
					t.Skipf("no FIFO: %v", err)
				}
				data := encodeBinary(t, three)
				if ext == ".csv" {
					data = encodeCSV(t, three)
				}
				release := make(chan struct{})
				t.Cleanup(func() { close(release) })
				go func() {
					w, err := os.OpenFile(path, os.O_WRONLY, 0)
					if err != nil {
						return
					}
					w.Write(data)
					<-release
					w.Close()
				}()
				fr, err := OpenShard(0, 1, path, path) // a second FIFO open would wait for a writer
				if err != nil {
					t.Fatal(err)
				}
				if n := readBatchWithin(t, tc.wrap(fr)); n != 3 {
					t.Fatalf("ReadBatch returned %d records, want 3", n)
				}
			})
		}
	}
}

// TestSkipAndReadAllThroughBatches: Skip and ReadAll read in batches,
// and Skip past the end says how far it got.
func TestSkipAndReadAllThroughBatches(t *testing.T) {
	records := randomRecords(1500, 2)
	r := NewSliceReader(records)
	if err := Skip(r, 1100); err != nil {
		t.Fatal(err)
	}
	rest, err := ReadAll(r)
	if err != nil || !reflect.DeepEqual(rest, records[1100:]) {
		t.Fatalf("after Skip(1100): %d records, %v", len(rest), err)
	}
	err = Skip(NewSliceReader(records), 1501)
	if !errors.Is(err, ErrTruncated) || !strings.Contains(err.Error(), "after 1500 of 1501") {
		t.Fatalf("Skip past the end: %v", err)
	}
}

// BenchmarkIngest is the cost line of the layers a dispatcher reads
// through — a ResilientReader over OpenFiles of a generated binary
// fleet, with a time window as the binaries set one — read a record at
// a time against 512-record batches: ns and allocations per record.
func BenchmarkIngest(b *testing.B) {
	path := filepath.Join(b.TempDir(), "fleet.cdr")
	if err := os.WriteFile(path, encodeBinary(b, randomRecords(benchRows, 1)), 0o644); err != nil {
		b.Fatal(err)
	}
	cfg := ResilientConfig{MaxBadFrac: -1, MinStart: t0.AddDate(0, 0, -7), MaxStart: t0.AddDate(1, 0, 0)}
	for _, bc := range []struct {
		name string
		size int
	}{{"read", 1}, {"batch", 512}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			dst := make([]Record, bc.size)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < b.N; i++ {
				fr, err := OpenShard(0, 1, path)
				if err != nil {
					b.Fatal(err)
				}
				r := NewResilientReader(fr, cfg)
				n := 0
				for {
					var k int
					if bc.size == 1 {
						if _, err = r.Read(); err == nil {
							k = 1
						}
					} else {
						k, err = r.ReadBatch(dst)
					}
					n += k
					if err != nil {
						break
					}
				}
				fr.Close()
				if err != io.EOF || n != benchRows {
					b.Fatalf("read %d of %d records, then %v", n, benchRows, err)
				}
			}
			runtime.ReadMemStats(&after)
			recs := float64(b.N * benchRows)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/recs, "ns/rec")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/recs, "allocs/rec")
		})
	}
}
