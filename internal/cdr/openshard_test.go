package cdr

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func shardedCSV(src io.Reader, shard, shards int) *CSVReader {
	r := NewCSVReader(src)
	r.own = owner{shard, shards}
	return r
}

func shardedBinary(src io.Reader, shard, shards int) *BinaryReader {
	r := NewBinaryReader(src)
	r.own = owner{shard, shards}
	return r
}

// scanned is one thing a codec handed its caller: a record, or the text
// of the ErrBadRecord or ErrTruncated it made of a row. row is the
// reader's row count when it did, which places the item in the file
// however many like it there are, and at is the reader's where().
type scanned struct {
	row int64
	rec Record
	err string
	at  string
}

// scanAll drains a codec, keeping everything it returns up to the end
// of its input, and returns what ended it.
func scanAll(t *testing.T, r fileCodec, limit int) ([]scanned, error) {
	t.Helper()
	var out []scanned
	for i := 0; i < limit; i++ {
		rec, err := r.Read()
		switch {
		case err == nil:
			out = append(out, scanned{row: r.scanStats().Rows, rec: rec, at: r.where()})
		case errors.Is(err, ErrBadRecord), errors.Is(err, ErrTruncated):
			out = append(out, scanned{row: r.scanStats().Rows, err: err.Error(), at: r.where()})
		default:
			return out, err
		}
	}
	t.Fatalf("reader did not end within %d reads", limit)
	return nil, nil
}

// checkPartition holds the shard readers' output to the unsharded
// reader's: every item it returned is returned by exactly one shard,
// under the same row ordinal and position, each shard keeps the file's
// order, nothing else comes out of any of them, and every reader framed
// the same rows.
func checkPartition(t *testing.T, open func(shard, shards int) fileCodec, shards, limit int) {
	t.Helper()
	whole := open(0, 1)
	want, wantEnd := scanAll(t, whole, limit)
	if st := whole.scanStats(); st.Skipped != 0 || st.Rows != int64(len(want)) {
		t.Fatalf("unsharded reader: %+v over %d items", st, len(want))
	}
	byRow := make(map[int64]scanned, len(want))
	for _, it := range want {
		byRow[it.row] = it
	}
	owner := make(map[int64]int, len(want))
	for s := 0; s < shards; s++ {
		r := open(s, shards)
		got, end := scanAll(t, r, limit)
		if end == errForeignTail {
			end = io.EOF // where the tail's owner, and the unsharded reader, read on to
		}
		if fmt.Sprint(end) != fmt.Sprint(wantEnd) {
			t.Fatalf("shard %d/%d ended with %v, the unsharded reader with %v", s, shards, end, wantEnd)
		}
		last := int64(0)
		for _, it := range got {
			if it.row <= last {
				t.Fatalf("shard %d/%d: row %d after row %d", s, shards, it.row, last)
			}
			last = it.row
			if w, ok := byRow[it.row]; !ok || w != it {
				t.Fatalf("shard %d/%d returned %+v; the unsharded reader has %+v there (present: %v)", s, shards, it, w, ok)
			}
			if prev, dup := owner[it.row]; dup {
				t.Fatalf("row %d returned by shards %d and %d of %d", it.row, prev, s, shards)
			}
			owner[it.row] = s
		}
		if st := r.scanStats(); st.Rows != int64(len(want)) || st.Rows-st.Skipped != int64(len(got)) {
			t.Fatalf("shard %d/%d: %+v, returned %d of the input's %d rows", s, shards, st, len(got), len(want))
		}
	}
	if len(owner) != len(want) {
		t.Fatalf("%d shards returned %d of %d rows", shards, len(owner), len(want))
	}
}

// shardFuzzSeeds adds to csvFuzzSeeds the shapes the ownership rule
// turns on. The seed with a 5 KB line stays behind: up to ten readers
// run per input, and minimising its mutants stalls the fuzzer
// (TestShardReadersPartitionAcrossRefills has the long lines).
func shardFuzzSeeds() [][]byte {
	const header = "car,cell,start_unix,duration_s\n"
	const row = "513,3670531,1483315200,60\n"
	var seeds [][]byte
	for _, seed := range csvFuzzSeeds() {
		if len(seed) < 1<<10 {
			seeds = append(seeds, seed)
		}
	}
	for _, s := range []string{
		// Junk in each column, on rows of different cars.
		header + "x513,3670531,1483315200,60\n514,x3670531,1483315200,60\n515,3670531,x1483315200,60\n516,3670531,1483315200,x60\n" + row,
		header + `"123",x3670531,1483315200,60` + "\n" + `"124",3670531,1483315200,60` + "\n" + row, // quoted first field
		header + "517,\"36705\n31\",1483315200,60\n518,\"x\n\n\",1483315200,60\n" + row,             // a quoted field spanning lines after a digits lead
		header + "\n\r\n519,x,1483315200,60\n\n" + row,                                              // blank lines before a malformed lead row
		header + row + header + row,               // the header mid-file
		"513,3670531,1483315200\n" + header + row, // and after a row that did not parse
		"12345678901234567890,3670531,1483315200,60\n1234567890123456789,3670531,1483315200,60\n" + row,
		"520\n521,\n,522\n" + row + "523,3670531,1483315200,60",
	} {
		seeds = append(seeds, []byte(s))
	}
	return seeds
}

// FuzzShardReadersPartitionInput is the contract behind OpenShard: on
// any bytes, cut into reads of any size, and for any shard count, the
// shard readers partition what the unsharded reader returns, and each
// returns through ReadBatch, at any sizes, what it does through Read.
// The first byte of the input picks the codec.
func FuzzShardReadersPartitionInput(f *testing.F) {
	for i, seed := range shardFuzzSeeds() {
		f.Add(seed, uint8(i), uint16(0), uint64(i))
		f.Add(seed, uint8(7), uint16(1), uint64(0))
		f.Add(seed, uint8(i+3), uint16(1+i*5), uint64(i*3))
	}
	records := randomRecords(40, 5)
	bin := encodeBinary(f, records)
	bad := bytes.Clone(bin)
	bad[8+3*binRecordSize+8] = 0 // carrier 0: one frame that fails Validate
	for _, seed := range [][]byte{bin, bad, bin[:len(bin)-5], bin[:5], bin[:8], []byte("not a cdr file")} {
		f.Add(seed, uint8(7), uint16(0), uint64(1))
		f.Add(seed, uint8(2), uint16(1), uint64(2))
	}
	f.Fuzz(func(t *testing.T, data []byte, shards uint8, chunk uint16, sizes uint64) {
		n := 1 + int(shards)%9
		open := func(shard, shards int) fileCodec {
			return shardedCSV(chunkReader{bytes.NewReader(data), int(chunk)}, shard, shards)
		}
		limit := len(data) + 16
		if bytes.HasPrefix(data, binMagic[:1]) {
			open = func(shard, shards int) fileCodec {
				return shardedBinary(chunkReader{bytes.NewReader(data), int(chunk)}, shard, shards)
			}
			limit = len(data)/binRecordSize + 16
		}
		checkPartition(t, open, n, limit)
		next := batchSizes(sizes)
		for s := 0; s < n; s++ {
			checkBatchesMatchRead(t, func() fileCodec { return open(s, n) }, next, limit)
		}
	})
}

// TestShardReadersPartitionAcrossRefills runs the partition property
// over a file several buffers long, so that rows straddle real buffer
// ends on both the skip and the parse side.
func TestShardReadersPartitionAcrossRefills(t *testing.T) {
	clean := encodeCSV(t, randomRecords(10000, 1))
	var dirty bytes.Buffer
	for i, line := range bytes.SplitAfter(clean, []byte("\n")) {
		switch {
		case i == 0 || i%97 != 0:
			dirty.Write(line)
		case i%4 == 0:
			dirty.WriteString("x")
			dirty.Write(line)
		case i%4 == 1:
			dirty.Write(line[:bytes.LastIndexByte(line, ',')])
			dirty.WriteString("\n")
		case i%4 == 2:
			dirty.Write(bytes.Replace(line, []byte(","), []byte(",\"a\nb\","), 1))
		default:
			dirty.WriteString("\n\r\n")
			dirty.Write(bytes.Replace(line, []byte(","), []byte(",x"), 1))
		}
	}
	dirty.WriteString("7," + strings.Repeat("9", 200<<10) + ",1483315200,60\n") // longer than the buffer
	dirty.Write(clean[len(clean)-60:])
	data := dirty.Bytes()
	for _, chunk := range []int{0, 1, 7, 4096, 65537} {
		for _, shards := range []int{2, 8} {
			checkPartition(t, func(shard, shards int) fileCodec {
				return shardedCSV(chunkReader{bytes.NewReader(data), chunk}, shard, shards)
			}, shards, len(data))
		}
	}
	bin := encodeBinary(t, randomRecords(10000, 1))
	for _, chunk := range []int{0, 1, 13} {
		checkPartition(t, func(shard, shards int) fileCodec {
			return shardedBinary(chunkReader{bytes.NewReader(bin[:len(bin)-9]), chunk}, shard, shards)
		}, 8, len(bin))
	}
}

// TestOwnershipRule pins the rule OpenShard states, row by row: who
// returns each row of a file built to meet every clause, whatever the
// read size.
func TestOwnershipRule(t *testing.T) {
	const shards = 5
	byCar := func(car CarID) int { return ShardOfCar(car, shards) }
	rows := []struct {
		text  string
		owner int // of the row this text ends
	}{
		{"car,cell,start_unix,duration_s\n", -1},                                      // the header is no row
		{"513,3670531,1483315200,60\n", byCar(513)},                                   // row 0: clean
		{"514,x3670531,1483315200,60\n", byCar(514)},                                  // row 1: lead, junk after it
		{"515,3670531,1483315200\n", byCar(515)},                                      // row 2: lead, three columns
		{"516,36\"70531,1483315200,60\n", byCar(516)},                                 // row 3: lead, a quote: framed by encoding/csv
		{"517,\"36705\n31\",1483315200,60\n", byCar(517)},                             // row 4: lead, spans two lines
		{"\n\r\n518,,1483315200,60\n", byCar(518)},                                    // row 5: lead after blank lines
		{"\"519\",3670531,1483315200,60\n", byCar(519)},                               // row 6: no lead, parses: its car's
		{"\"520\",x,1483315200,60\n", 7 % shards},                                     // row 7: no lead, does not parse: its ordinal's
		{"x521,3670531,1483315200,60\n", 8 % shards},                                  // row 8
		{"12345678901234567890,3670531,1483315200,60\n", byCar(12345678901234567890)}, // row 9: 20 digits is no lead
		{"522\n", 10 % shards},                                                        // row 10: digits without a comma
		{"car,cell,start_unix,duration_s\n", 11 % shards},                             // row 11: a header mid-file is a bad row
		{"523,3670531,1483315200,60", byCar(523)},                                     // row 12: no final newline
	}
	var data []byte
	var want []int
	for _, r := range rows {
		data = append(data, r.text...)
		if r.owner >= 0 {
			want = append(want, r.owner)
		}
	}
	for _, chunk := range []int{0, 1, 3, 19, 20, 21} {
		got := make([]int, len(want))
		for i := range got {
			got[i] = -1
		}
		for s := 0; s < shards; s++ {
			items, end := scanAll(t, shardedCSV(chunkReader{bytes.NewReader(data), chunk}, s, shards), len(data))
			if end != io.EOF {
				t.Fatalf("chunk %d, shard %d ended with %v", chunk, s, end)
			}
			for _, it := range items {
				if got[it.row-1] != -1 {
					t.Fatalf("chunk %d: row %d returned twice", chunk, it.row-1)
				}
				got[it.row-1] = s
			}
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("chunk %d: row %d returned by shard %d, the rule gives it to %d (all rows: %v, want %v)", chunk, i, got[i], want[i], got, want)
			}
		}
	}

	// Binary: a frame is its car's, valid or not; the torn tail its ordinal's.
	recs := randomRecords(12, 9)
	bin := encodeBinary(t, recs)
	bin[8+4*binRecordSize+8] = 0 // frame 4 fails Validate
	bin = bin[:len(bin)-3]       // frame 11 is torn
	for s := 0; s < shards; s++ {
		items, end := scanAll(t, shardedBinary(bytes.NewReader(bin), s, shards), 64)
		for _, it := range items {
			i := int(it.row - 1)
			owner := byCar(recs[i].Car)
			if i == 11 {
				owner = 11 % shards
			}
			if owner != s {
				t.Fatalf("binary frame %d returned by shard %d, the rule gives it to %d", i, s, owner)
			}
		}
		if s == 11%shards {
			if n := len(items); n == 0 || !strings.Contains(items[n-1].err, "cut at") {
				t.Fatalf("shard %d owns the torn tail and was not told: %+v", s, items)
			}
		} else if end != errForeignTail {
			t.Fatalf("shard %d ended with %v, want the foreign-tail end", s, end)
		}
	}
}

// TestShardedErrorTextNamesFileLines: lines a sharded reader skipped
// still count, so what encoding/csv says of a bad row late in the file
// names the line it is on — the oracle reader's words exactly — and so
// does Pos for a row whose error carries no line of its own.
func TestShardedErrorTextNamesFileLines(t *testing.T) {
	const shards = 8
	data := encodeCSV(t, randomRecords(12000, 2))
	lines := bytes.SplitAfter(data, []byte("\n"))
	lines[11000] = []byte("777,3670531,1483315200\n")        // three columns: a csv.ParseError
	lines[11500] = []byte("778,x3670531,1483315200,60\n")    // junk: an error without a line
	lines[11700] = []byte("779,\"a\nb\",1483315200,60\n")    // two physical lines
	lines[11900] = []byte("\n\n780,3670531,1483315200,-1\n") // after blank lines
	data = bytes.Join(lines, nil)

	var want []scanned
	oracle := newOracleCSVReader(bytes.NewReader(data))
	for {
		_, err := oracle.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			want = append(want, scanned{err: err.Error()})
		}
	}
	wantAt := []string{"line 11001", "line 11501", "line 11701", "line 11904"}
	if len(want) != len(wantAt) || !strings.Contains(want[0].err, "line 11001") {
		t.Fatalf("oracle reports %+v", want)
	}
	var got []scanned
	for s := 0; s < shards; s++ {
		r := shardedCSV(bytes.NewReader(data), s, shards)
		items, _ := scanAll(t, r, len(lines)+16)
		for _, it := range items {
			if it.err != "" {
				got = append(got, it)
			}
		}
		if r.scan.Skipped < 9000 {
			t.Fatalf("shard %d skipped %d rows of %d: the test means to count skipped lines", s, r.scan.Skipped, r.scan.Rows)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("shards report %d bad rows, the oracle %d", len(got), len(want))
	}
	for i, w := range want {
		found := false
		for _, g := range got {
			if g.err == w.err && g.at == wantAt[i] {
				found = true
			}
		}
		if !found {
			t.Fatalf("no shard reports %q at %s; they report %+v", w.err, wantAt[i], got)
		}
	}
}

// TestCSVReaderKnowsItsLines holds where() to the line each row starts
// on in a file whose rows do not map one to one onto lines.
func TestCSVReaderKnowsItsLines(t *testing.T) {
	data := "car,cell,start_unix,duration_s\n" + // 1
		"513,3670531,1483315200,60\n" + // 2
		"\n\r\n" + // 3, 4
		"514,3670531,1483315200,60\r\n" + // 5
		"515,\"36705\n\n31\",1483315200,60\n" + // 6-8: bad cell
		"516,3670531,1483315200,60\n" + // 9
		"517,3670531,1483315200,\"6\n0\"\n" + // 10-11: bad duration, last field spans
		"518,3670531,1483315200,60\n" + // 12
		"519,3670531,\"14833\n15200\"\n" + // 13-14: three columns, last field spans
		"520,3670531,1483315200,60\n" + // 15
		"521,36\"70531,1483315200,60\n" + // 16: bare quote
		"522,3670531,1483315200,60\n" + // 17
		"523,3670531,2114035200,60" // 18: no newline
	want := []string{"line 2", "line 5", "line 6", "line 9", "line 10", "line 12", "line 13", "line 15", "line 16", "line 17", "line 18"}
	for _, chunk := range []int{0, 1, 5} {
		items, end := scanAll(t, NewCSVReader(chunkReader{strings.NewReader(data), chunk}), 64)
		if end != io.EOF || len(items) != len(want) {
			t.Fatalf("chunk %d: %d items, end %v", chunk, len(items), end)
		}
		for i, it := range items {
			if it.at != want[i] {
				t.Fatalf("chunk %d: row %d (%+v) placed at %s, want %s", chunk, i, it, it.at, want[i])
			}
		}
	}
}

// TestSkippedRowAllocatesNothing is the point of the skip: a foreign row
// costs a hash and a scan for its line end, no Record, no allocation.
func TestSkippedRowAllocatesNothing(t *testing.T) {
	records := randomRecords(20000, 1)
	csv, bin := encodeCSV(t, records), encodeBinary(t, records)
	for name, open := range map[string]func() fileCodec{
		"csv":    func() fileCodec { return shardedCSV(bytes.NewReader(csv), 0, 1<<20) },
		"binary": func() fileCodec { return shardedBinary(bytes.NewReader(bin), 0, 1<<20) },
	} {
		// 500 cars over a million shards: all but a few rows are foreign,
		// so each Read skips its way to the end of the input.
		var r fileCodec
		a := testing.AllocsPerRun(3, func() {
			r = open()
			for {
				if _, err := r.Read(); err != nil {
					if err != io.EOF {
						t.Fatal(err)
					}
					return
				}
			}
		})
		st := r.scanStats()
		if st.Rows != int64(len(records)) || st.Skipped < st.Rows-100 {
			t.Fatalf("%s: %+v, want nearly all of %d rows skipped", name, st, len(records))
		}
		// The reader, its buffer and, for CSV, one encoding/csv row per
		// refill: nothing that grows with the rows.
		if perRow := a / float64(st.Skipped); perRow >= 0.01 {
			t.Fatalf("%s: %.0f allocations over %d skipped rows (%.4f per row), want < 0.01", name, a, st.Skipped, perRow)
		}
	}
}

// writeFaulty writes a CSV of n random records with bench's three
// faults planted every step rows, and returns its path.
func writeFaulty(t testing.TB, n, step int) string {
	t.Helper()
	lines := bytes.SplitAfter(encodeCSV(t, randomRecords(n, 4)), []byte("\n"))
	for i := step; i < len(lines)-1; i += step {
		line := lines[i]
		switch (i / step) % 3 {
		case 1:
			lines[i] = bytes.Replace(line, []byte(","), []byte(",x"), 1)
		case 2:
			lines[i] = append(bytes.Clone(line[:bytes.LastIndexByte(line, ',')]), '\n')
		default:
			f := bytes.Split(line, []byte(","))
			f[2] = []byte("2114035200") // 2036
			lines[i] = bytes.Join(f, []byte(","))
		}
	}
	path := filepath.Join(t.TempDir(), "faulty.csv")
	if err := os.WriteFile(path, bytes.Join(lines, nil), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestOpenShardMatchesFilterPipeline: what OpenShard's stream delivers
// through a ResilientReader is, shard by shard, what the pipeline it
// replaced delivered — FilterFunc by ShardOfCar over a ResilientReader
// over the whole file — and the shards' quarantine counts, class by
// class, add up to the single reader's, as do rows framed and skipped.
func TestOpenShardMatchesFilterPipeline(t *testing.T) {
	const shards = 8
	path := writeFaulty(t, 20000, 53)
	cfg := ResilientConfig{MaxBadFrac: -1, MinStart: t0.AddDate(0, 0, -7), MaxStart: t0.AddDate(1, 0, 0)}

	files, closer, err := OpenFiles(path)
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	whole := NewResilientReader(files, cfg)
	all, err := ReadAll(whole)
	if err != nil {
		t.Fatal(err)
	}
	want := whole.Stats()
	if want.Quarantined[ClassBadField] == 0 || want.Quarantined[ClassTimeRange] == 0 {
		t.Fatalf("fixture quarantines %v: want bad fields and time ranges", want.Quarantined)
	}

	var sum IngestStats
	for s := 0; s < shards; s++ {
		s := s
		old, err := ReadAll(FilterFunc(NewSliceReader(all), func(r Record) bool { return ShardOfCar(r.Car, shards) == s }))
		if err != nil {
			t.Fatal(err)
		}
		fr, err := OpenShard(s, shards, path)
		if err != nil {
			t.Fatal(err)
		}
		rr := NewResilientReader(fr, cfg)
		got, err := ReadAll(rr)
		if err != nil {
			t.Fatal(err)
		}
		fr.Close()
		if len(got) != len(old) {
			t.Fatalf("shard %d: %d records, the filter pipeline keeps %d", s, len(got), len(old))
		}
		for i := range got {
			if got[i] != old[i] {
				t.Fatalf("shard %d record %d: %+v, the filter pipeline has %+v", s, i, got[i], old[i])
			}
		}
		st, scan := rr.Stats(), fr.Scan()
		if scan.Rows != want.Attempted() || scan.Rows != scan.Skipped+st.Read+st.QuarantinedTotal() {
			t.Fatalf("shard %d: framed %+v, read %d, quarantined %d, over an input of %d rows", s, scan, st.Read, st.QuarantinedTotal(), want.Attempted())
		}
		sum.Read += st.Read
		for c := range sum.Quarantined {
			sum.Quarantined[c] += st.Quarantined[c]
		}
	}
	if sum != want {
		t.Fatalf("shards add up to %+v, the single reader counts %+v", sum, want)
	}
	if _, err := OpenShard(8, 8, path); err == nil {
		t.Fatal("OpenShard accepted shard 8 of 8")
	}
}

// TestStrictRefusalNamesTheRow: under Strict the first malformed row
// ends the ingest with an ErrRefused that says where the row is, for an
// error text that carries no line itself; so is a spent budget an
// ErrRefused, and neither is anything a reader's own failure wraps.
func TestStrictRefusalNamesTheRow(t *testing.T) {
	path := writeFaulty(t, 1000, 700) // its one fault: junk in the cell, on line 701
	// A row the codec accepts and the window refuses: 2036, on line 301.
	lines := bytes.SplitAfter(encodeCSV(t, randomRecords(1000, 4)), []byte("\n"))
	f := bytes.Split(lines[300], []byte(","))
	f[2] = []byte("2114035200")
	lines[300] = bytes.Join(f, []byte(","))
	late := filepath.Join(t.TempDir(), "late.csv")
	if err := os.WriteFile(late, bytes.Join(lines, nil), 0o644); err != nil {
		t.Fatal(err)
	}
	window := ResilientConfig{Strict: true, MinStart: t0, MaxStart: t0.AddDate(1, 0, 0)}
	for _, tc := range []struct {
		path, line string
		cfg        ResilientConfig
		cause      error
	}{
		{path, "line 701", ResilientConfig{Strict: true}, ErrBadRecord},
		{late, "line 301", window, nil},
	} {
		for _, shards := range []int{1, 4} {
			refused := 0
			for s := 0; s < shards; s++ {
				fr, err := OpenShard(s, shards, tc.path)
				if err != nil {
					t.Fatal(err)
				}
				_, err = ReadAll(NewResilientReader(fr, tc.cfg))
				fr.Close()
				if err == nil {
					continue
				}
				refused++
				if !errors.Is(err, ErrRefused) || tc.cause != nil && !errors.Is(err, tc.cause) {
					t.Fatalf("strict error %v: want an ErrRefused wrapping its cause", err)
				}
				if want := tc.path + ": " + tc.line + ": "; !strings.Contains(err.Error(), want) {
					t.Fatalf("strict error %q does not place the row (%q)", err, want)
				}
			}
			if refused != 1 {
				t.Fatalf("%d of %d shards refused the input's first bad row, want its one owner", refused, shards)
			}
		}
	}
	fr, err := OpenShard(0, 1, path)
	if err != nil {
		t.Fatal(err)
	}
	defer fr.Close()
	_, err = ReadAll(NewResilientReader(fr, ResilientConfig{MaxBadFrac: 0.0001, MinRecords: 10}))
	var be *BudgetError
	if !errors.As(err, &be) || !errors.Is(err, ErrRefused) {
		t.Fatalf("spent budget: %v, want a *BudgetError that is an ErrRefused", err)
	}
	if errors.Is(io.ErrUnexpectedEOF, ErrRefused) || errors.Is(ErrTruncated, ErrRefused) {
		t.Fatal("a read failure passes for a refusal")
	}
}

// BenchmarkShardScan is what one foreign row costs a shard worker: the
// skip below the parse (OpenShard's readers) against the pipeline it
// replaced, a full decode and the ingest checks with FilterFunc on top.
// Shard 0 of 2^20 owns next to nothing, so nearly every row is foreign.
func BenchmarkShardScan(b *testing.B) {
	const shards = 1 << 20
	records := randomRecords(benchRows, 1)
	own := func(r Record) bool { return ShardOfCar(r.Car, shards) == 0 }
	cfg := ResilientConfig{MaxBadFrac: -1, MinStart: t0.AddDate(0, 0, -7), MaxStart: t0.AddDate(1, 0, 0)}
	for _, codec := range []struct {
		name   string
		data   []byte
		skip   func(io.Reader) Reader
		filter func(io.Reader) Reader
	}{
		{"csv", encodeCSV(b, records),
			func(r io.Reader) Reader { return shardedCSV(r, 0, shards) },
			func(r io.Reader) Reader { return NewCSVReader(r) }},
		{"binary", encodeBinary(b, records),
			func(r io.Reader) Reader { return shardedBinary(r, 0, shards) },
			func(r io.Reader) Reader { return NewBinaryReader(r) }},
	} {
		run := func(name string, open func(io.Reader) Reader) {
			b.Run(codec.name+"/"+name, func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(len(codec.data)))
				for i := 0; i < b.N; i++ {
					if _, err := ReadAll(open(bytes.NewReader(codec.data))); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchRows), "ns/row")
			})
		}
		run("skip", func(r io.Reader) Reader { return NewResilientReader(codec.skip(r), cfg) })
		run("filter", func(r io.Reader) Reader { return FilterFunc(NewResilientReader(codec.filter(r), cfg), own) })
	}
}
