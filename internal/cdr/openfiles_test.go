package cdr

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// openFDs counts this process's open descriptors; the directory read
// itself holds one at each call, so counts compare like with like.
func openFDs(t *testing.T) int {
	t.Helper()
	entries, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd to count descriptors through: %v", err)
	}
	return len(entries)
}

// writeInputs writes three inputs — binary, CSV, binary — of 300
// records each and returns their paths and the records in file order.
func writeInputs(t *testing.T) ([]string, []Record) {
	t.Helper()
	dir := t.TempDir()
	all := randomRecords(900, 3)
	paths := []string{filepath.Join(dir, "a.cdr"), filepath.Join(dir, "b.csv"), filepath.Join(dir, "c.cdr")}
	for i, path := range paths {
		part := all[i*300 : (i+1)*300]
		data := encodeBinary(t, part)
		if filepath.Ext(path) == ".csv" {
			data = encodeCSV(t, part)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return paths, all
}

func TestOpenFilesConcatenatesOneDescriptorAtATime(t *testing.T) {
	paths, want := writeInputs(t)
	before := openFDs(t)
	r, closer, err := OpenFiles(paths...)
	if err != nil {
		t.Fatal(err)
	}
	if got := openFDs(t); got != before {
		t.Fatalf("OpenFiles holds %d descriptors before the first Read", got-before)
	}
	for i := range want {
		rec, err := r.Read()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if rec != want[i] {
			t.Fatalf("record %d = %+v, want %+v", i, rec, want[i])
		}
		if got := openFDs(t); got != before+1 {
			t.Fatalf("at record %d: %d descriptors open, want 1", i, got-before)
		}
	}
	if _, err := r.Read(); err != io.EOF {
		t.Fatalf("after the last record: %v, want io.EOF", err)
	}
	if got := openFDs(t); got != before {
		t.Fatalf("%d descriptors still open at EOF", got-before)
	}
	if err := closer.Close(); err != nil {
		t.Fatalf("Close after EOF: %v", err)
	}
}

func TestOpenFilesMissingInputFailsUpFront(t *testing.T) {
	paths, _ := writeInputs(t)
	paths[1] = filepath.Join(t.TempDir(), "absent.csv")
	if _, _, err := OpenFiles(paths...); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("OpenFiles with a missing second input: %v, want os.ErrNotExist", err)
	}
}

// A file that was there for the up-front check and is gone at its turn
// ends the stream from Read; the resilient layer counts it as an I/O
// failure, and nothing stays open.
func TestOpenFilesInputVanishesBeforeItsTurn(t *testing.T) {
	paths, _ := writeInputs(t)
	before := openFDs(t)
	files, _, err := OpenFiles(paths...)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(paths[1]); err != nil {
		t.Fatal(err)
	}
	rr := NewResilientReader(files, ResilientConfig{})
	got, err := ReadAll(rr)
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("stream over a vanished input ended with %v, want os.ErrNotExist", err)
	}
	if len(got) != 300 {
		t.Fatalf("read %d records before the vanished input, want the first file's 300", len(got))
	}
	if st := rr.Stats(); st.Quarantined[ClassIO] != 1 {
		t.Fatalf("quarantine counts %v, want one %v", st.Quarantined, ClassIO)
	}
	if _, err := files.Read(); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Read after the stream ended: %v, want the same error", err)
	}
	if got := openFDs(t); got != before {
		t.Fatalf("%d descriptors left open after the failure", got-before)
	}
}

// A read error inside a file — here a binary file cut mid-record —
// closes that file too.
func TestOpenFilesClosesOnMidFileError(t *testing.T) {
	paths, _ := writeInputs(t)
	if err := os.Truncate(paths[0], 8+10*binRecordSize+5); err != nil {
		t.Fatal(err)
	}
	before := openFDs(t)
	files, _, err := OpenFiles(paths...)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(files)
	if !errors.Is(err, ErrTruncated) || len(got) != 10 {
		t.Fatalf("read %d records, err %v; want 10 and ErrTruncated", len(got), err)
	}
	if got := openFDs(t); got != before {
		t.Fatalf("%d descriptors left open after a mid-file error", got-before)
	}
}

func TestOpenFilesCloseMidFile(t *testing.T) {
	paths, _ := writeInputs(t)
	before := openFDs(t)
	files, closer, err := OpenFiles(paths...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := files.Read(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := closer.Close(); err != nil {
			t.Fatalf("Close #%d: %v", i+1, err)
		}
	}
	if got := openFDs(t); got != before {
		t.Fatalf("%d descriptors open after Close", got-before)
	}
	if _, err := files.Read(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Read after Close: %v, want ErrClosed", err)
	}
}

// A malformed row is the one error that does not end the stream: the
// file stays open and the rows after it, and the files after it, are
// still read.
func TestOpenFilesKeepsReadingPastBadRecords(t *testing.T) {
	paths, want := writeInputs(t)
	csv, err := os.ReadFile(paths[1])
	if err != nil {
		t.Fatal(err)
	}
	// One junk row after the header line.
	csv = bytes.Replace(csv, []byte("\n"), []byte("\nnot,a,cdr,row\n"), 1)
	if err := os.WriteFile(paths[1], csv, 0o644); err != nil {
		t.Fatal(err)
	}
	files, closer, err := OpenFiles(paths...)
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	rr := NewResilientReader(files, ResilientConfig{MaxBadFrac: -1})
	got, err := ReadAll(rr)
	if err != nil || len(got) != len(want) {
		t.Fatalf("read %d records, err %v; want all %d", len(got), err, len(want))
	}
	if st := rr.Stats(); st.Quarantined[ClassBadField] != 1 {
		t.Fatalf("quarantine counts %v, want one %v", st.Quarantined, ClassBadField)
	}
}
