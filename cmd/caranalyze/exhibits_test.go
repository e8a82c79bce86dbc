package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"cellcars/internal/analysis"
	"cellcars/internal/cdr"
	"cellcars/internal/simtime"
)

// sections splits a report body into its "== " sections, keyed by
// header line.
func sections(body string) map[string]string {
	out := map[string]string{}
	for _, s := range strings.Split("\n"+body, "\n== ")[1:] {
		header, _, _ := strings.Cut(s, "\n")
		out[header] = "== " + s
	}
	return out
}

// TestDefaultModeOverAFIFO: an input that cannot be read twice still
// runs in default mode. Figures 5 and 8 say they need a regular file;
// every other section is the one a run over the same bytes in a regular
// file prints.
func TestDefaultModeOverAFIFO(t *testing.T) {
	dir := t.TempDir()
	data := cdrBytes(t, 3000)
	file := filepath.Join(dir, "cars.cdr")
	if err := os.WriteFile(file, data, 0o644); err != nil {
		t.Fatal(err)
	}
	args := []string{"-days", "13", "-tz", "0"}
	ref, err := caranalyze(append([]string{"-in", file}, args...)...).Output()
	if err != nil {
		t.Fatalf("regular file: %v", err)
	}

	fifo := filepath.Join(dir, "pipe.cdr")
	if err := syscall.Mkfifo(fifo, 0o600); err != nil {
		t.Skipf("mkfifo: %v", err)
	}
	cmd := caranalyze(append([]string{"-in", fifo}, args...)...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	proc := startChild(t, cmd)
	w, err := os.OpenFile(fifo, os.O_WRONLY, 0) // blocks until the child opens the read end
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	w.Close()
	if err := proc.wait(); err != nil {
		t.Fatalf("FIFO run: %v\nstderr: %s", err, stderr.String())
	}

	want, got := sections(reportSection(t, ref)), sections(reportSection(t, stdout.Bytes()))
	if len(got) != len(want) {
		t.Fatalf("FIFO run printed %d sections, the regular file %d", len(got), len(want))
	}
	for header, block := range want {
		switch {
		case strings.HasPrefix(header, "Figure 5") || strings.HasPrefix(header, "Figure 8"):
			note := "== " + header + "\n(needs a regular input file: " + fifo + " is not one, and is read once)\n"
			if got[header] != note {
				t.Errorf("FIFO run's %s:\n%q\nwant the note %q", header, got[header], note)
			}
		case got[header] != block:
			t.Errorf("FIFO run's %s differs:\n%s\nregular file:\n%s", header, got[header], block)
		}
	}
}

// TestRereadRefusesAChangedInput: the second read draws nothing from an
// input whose ingest counts are not the first read's — a row more, a
// row that turned bad, a bad row mended — nor from one whose counts are
// but whose records are not, and it names the input and both counts;
// the same input reads through.
func TestRereadRefusesAChangedInput(t *testing.T) {
	period := simtime.NewPeriod(studyStart, 13)
	cfg := cdr.ResilientConfig{MaxBadFrac: -1}
	// csv writes the records as CSV with the given rows corrupt.
	csv := func(records []cdr.Record, bad ...int) string {
		var b strings.Builder
		w := cdr.NewCSVWriter(&b)
		if err := cdr.WriteAll(w, records); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		lines := strings.SplitAfter(b.String(), "\n")
		for _, i := range bad {
			lines[i] = "corrupt," + lines[i]
		}
		return strings.Join(lines, "")
	}
	records := cdrRecords(200)
	first := csv(records, 7)
	for _, tc := range []struct {
		name, second, says string
	}{
		{"same input", first, ""},
		{"a row more", csv(cdrRecords(201), 7), "the second read 201 rows (200 delivered, 1 bad-field)"},
		{"a row turned bad", csv(records, 7, 9), "the second read 200 rows (198 delivered, 2 bad-field)"},
		{"a bad row mended", csv(records), "the second read 200 rows (200 delivered)"},
		{"another row bad", csv(records, 9), "both reads counted 200 rows (199 delivered, 1 bad-field), but not the same records"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rr := cdr.NewResilientReader(cdr.NewCSVReader(strings.NewReader(first)), cfg)
			picked := &picking{r: rr, pick: analysis.NewExhibitPicker(period)}
			if _, err := analysis.NewEngine(analysis.Context{Period: period}, analysis.EngineOptions{Workers: 1}).
				RunReader(picked); err != nil {
				t.Fatal(err)
			}
			done := firstRead{stats: rr.Stats(), sum: picked.sum}
			x, err := picked.pick.Exhibits(func() (cdr.Reader, error) {
				again := cdr.NewResilientReader(cdr.NewCSVReader(strings.NewReader(tc.second)), cfg)
				return &reread{rr: again, closer: io.NopCloser(nil), path: "cars.csv", first: done}, nil
			}, nil)
			if tc.says == "" {
				if err != nil || len(x.Records) == 0 {
					t.Fatalf("unchanged input: err %v", err)
				}
				return
			}
			if err == nil {
				t.Fatal("a changed input was drawn from")
			}
			for _, want := range []string{"cars.csv changed after the engine read it", tc.says} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not say %q", err, want)
				}
			}
			if !strings.Contains(tc.says, "both reads") && !strings.Contains(err.Error(), "the engine read 200 rows (199 delivered, 1 bad-field)") {
				t.Errorf("error %q does not give the first read's counts", err)
			}
		})
	}
}

// TestOneQuarantineTrail: default mode's second read writes no
// quarantine entry and bumps no counter, so its -quarantine file and
// Data Quality block are -stream's, byte for byte.
func TestOneQuarantineTrail(t *testing.T) {
	dir := t.TempDir()
	var b strings.Builder
	w := cdr.NewCSVWriter(&b)
	if err := cdr.WriteAll(w, cdrRecords(4000)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// One row in 200 corrupt: 0.5 %, inside the default budget.
	lines := strings.SplitAfter(b.String(), "\n")
	for i := 200; i < len(lines); i += 200 {
		lines[i] = "corrupt," + lines[i]
	}
	in := filepath.Join(dir, "faulty.csv")
	if err := os.WriteFile(in, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	run := func(name string, mode ...string) (quality, tsv string) {
		t.Helper()
		q := filepath.Join(dir, name+".tsv")
		out, err := caranalyze(append([]string{"-in", in, "-days", "13", "-tz", "0", "-quarantine", q}, mode...)...).Output()
		if err != nil {
			t.Fatalf("%s run: %v", name, err)
		}
		trail, err := os.ReadFile(q)
		if err != nil {
			t.Fatal(err)
		}
		return textBlock(t, out, "== Data Quality"), string(trail)
	}
	defQ, defTSV := run("default")
	streamQ, streamTSV := run("stream", "-stream")
	if n := strings.Count(defTSV, "\n"); n != len(lines)/200 {
		t.Errorf("default mode quarantined %d rows, want %d:\n%s", n, len(lines)/200, defTSV)
	}
	if defTSV != streamTSV {
		t.Errorf("quarantine files differ:\ndefault:\n%s\n-stream:\n%s", defTSV, streamTSV)
	}
	if defQ != streamQ {
		t.Errorf("Data Quality differs:\ndefault:\n%s\n-stream:\n%s", defQ, streamQ)
	}
}
