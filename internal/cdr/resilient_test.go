package cdr

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"
)

// noBudget disables the error budget so classification tests don't
// trip it.
func noBudget() ResilientConfig { return ResilientConfig{MaxBadFrac: -1} }

// memSink collects quarantined records in memory.
type memSink struct {
	got  []Quarantined
	fail error // returned from Quarantine when non-nil
}

func (m *memSink) Quarantine(q Quarantined) error {
	if m.fail != nil {
		return m.fail
	}
	m.got = append(m.got, q)
	return nil
}

func TestResilientQuarantinesBadCSVRows(t *testing.T) {
	raw := "car,cell,start_unix,duration_s\n" +
		"5,196611,1483315200,60\n" +
		"garbage,x,y,z\n" +
		"6,196611,1483315260,30\n"
	sink := &memSink{}
	cfg := noBudget()
	cfg.Sink = sink
	r := NewResilientReader(NewCSVReader(strings.NewReader(raw)), cfg)
	out, err := ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("records = %d, want 2", len(out))
	}
	stats := r.Stats()
	if stats.Read != 2 || stats.Quarantined[ClassBadField] != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	if len(sink.got) != 1 || sink.got[0].Class != ClassBadField || sink.got[0].Index != 1 {
		t.Fatalf("sink = %+v", sink.got)
	}
}

func TestResilientTruncatedTailEndsStreamCleanly(t *testing.T) {
	in := []Record{rec(1, 1, 0, time.Minute), rec(2, 2, time.Hour, time.Minute)}
	data := encodeBinary(t, in)
	data = data[:len(data)-5] // tear the second record

	r := NewResilientReader(NewBinaryReader(bytes.NewReader(data)), noBudget())
	out, err := ReadAll(r)
	if err != nil {
		t.Fatalf("truncated tail must degrade to EOF, got %v", err)
	}
	if len(out) != 1 {
		t.Fatalf("records = %d, want 1", len(out))
	}
	if got := r.Stats().Quarantined[ClassTruncated]; got != 1 {
		t.Fatalf("truncated quarantine = %d, want 1", got)
	}
	// Terminal state is sticky.
	if _, err := r.Read(); !errors.Is(err, io.EOF) {
		t.Fatalf("post-EOF read = %v", err)
	}
}

func TestResilientTimeWindow(t *testing.T) {
	cfg := noBudget()
	cfg.MinStart = t0
	cfg.MaxStart = t0.AddDate(0, 0, 90)
	in := []Record{
		rec(1, 1, 0, time.Minute),
		rec(2, 2, -48*time.Hour, time.Minute),     // before window
		rec(3, 3, 91*24*time.Hour, time.Minute),   // after window
		rec(4, 4, 89*24*time.Hour, 2*time.Minute), // inside
	}
	r := NewResilientReader(NewSliceReader(in), cfg)
	out, err := ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0].Car != 1 || out[1].Car != 4 {
		t.Fatalf("records = %+v", out)
	}
	if got := r.Stats().Quarantined[ClassTimeRange]; got != 2 {
		t.Fatalf("time-range quarantine = %d, want 2", got)
	}
}

func TestResilientDuplicatesAndRegressions(t *testing.T) {
	cfg := noBudget()
	cfg.FlagDuplicates = true
	cfg.FlagRegressions = true
	in := []Record{
		rec(1, 1, time.Hour, time.Minute),
		rec(1, 1, time.Hour, time.Minute), // exact duplicate
		rec(2, 2, 2*time.Hour, time.Minute),
		rec(3, 3, time.Hour, time.Minute), // start regresses
		rec(4, 4, 3*time.Hour, time.Minute),
	}
	r := NewResilientReader(NewSliceReader(in), cfg)
	out, err := ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("records = %d, want 3", len(out))
	}
	stats := r.Stats()
	if stats.Quarantined[ClassDuplicate] != 1 || stats.Quarantined[ClassRegression] != 1 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestResilientBudgetAbortNamesDominantClass(t *testing.T) {
	// 50 good records then a run of bad rows: with a 10% budget and
	// MinRecords 10 the reader must abort and name bad-field as the
	// dominant class.
	var buf bytes.Buffer
	w := NewCSVWriter(&buf)
	for i := 0; i < 50; i++ {
		if err := w.Write(rec(CarID(i), 1, time.Duration(i)*time.Minute, time.Minute)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	raw := buf.String()
	for i := 0; i < 20; i++ {
		raw += fmt.Sprintf("bad%d,x,y,z\n", i)
	}

	cfg := ResilientConfig{MaxBadFrac: 0.10, MinRecords: 10}
	r := NewResilientReader(NewCSVReader(strings.NewReader(raw)), cfg)
	_, err := ReadAll(r)
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want *BudgetError", err)
	}
	if class, _ := be.Stats.Dominant(); class != ClassBadField {
		t.Fatalf("dominant class = %v, want bad-field", class)
	}
	if !strings.Contains(err.Error(), "bad-field") {
		t.Fatalf("error must name the dominant class: %q", err.Error())
	}
	// The abort is sticky.
	if _, err2 := r.Read(); !errors.As(err2, &be) {
		t.Fatalf("post-abort read = %v", err2)
	}
}

func TestResilientStrictAbortsOnFirstBadRecord(t *testing.T) {
	raw := "5,196611,1483315200,60\ngarbage,x,y,z\n6,196611,1483315300,30\n"
	cfg := ResilientConfig{Strict: true}
	r := NewResilientReader(NewCSVReader(strings.NewReader(raw)), cfg)
	out, err := ReadAll(r)
	if err == nil || errors.Is(err, io.EOF) {
		t.Fatalf("strict mode accepted a bad record (err=%v)", err)
	}
	if len(out) != 1 {
		t.Fatalf("records before abort = %d, want 1", len(out))
	}
}

// TestResilientIOErrorEndsTheStream: a source's I/O error ends the
// stream at its first occurrence — counted once as ClassIO, returned,
// and returned again without asking the source a second time.
func TestResilientIOErrorEndsTheStream(t *testing.T) {
	in := randomRecords(2, 9)
	gone := errors.New("disk gone")
	calls := 0
	src := readerFunc(func() (Record, error) {
		calls++
		if calls <= len(in) {
			return in[calls-1], nil
		}
		return Record{}, gone
	})
	r := NewResilientReader(src, noBudget())
	out, err := ReadAll(r)
	if !errors.Is(err, gone) || len(out) != len(in) {
		t.Fatalf("read %d records, err %v; want %d, then the source's error", len(out), err, len(in))
	}
	if _, err := r.Read(); !errors.Is(err, gone) {
		t.Fatalf("second read: %v, want the same error", err)
	}
	if calls != len(in)+1 {
		t.Fatalf("source read %d times, want %d: the failed read was repeated", calls, len(in)+1)
	}
	if got := r.Stats().Quarantined[ClassIO]; got != 1 {
		t.Fatalf("%d io-error quarantines, want 1", got)
	}
}

func TestResilientSinkFailureIsFatal(t *testing.T) {
	raw := "garbage,x,y,z\n5,196611,1483315200,60\n"
	cfg := noBudget()
	cfg.Sink = &memSink{fail: errors.New("disk full")}
	r := NewResilientReader(NewCSVReader(strings.NewReader(raw)), cfg)
	if _, err := ReadAll(r); err == nil || !strings.Contains(err.Error(), "quarantine sink") {
		t.Fatalf("err = %v, want sink failure", err)
	}
}

func TestResilientRevalidatesDecodedRecords(t *testing.T) {
	// Records arriving from a non-codec source (or mutated in
	// transit) must still be validated.
	bad := rec(1, 1, time.Hour, time.Minute)
	bad.Start = time.Time{}
	r := NewResilientReader(NewSliceReader([]Record{rec(2, 2, 0, time.Minute), bad}), noBudget())
	out, err := ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || r.Stats().Quarantined[ClassBadField] != 1 {
		t.Fatalf("records = %d, quarantined = %+v", len(out), r.Stats().Quarantined)
	}
}

func TestQuarantineWriterFormat(t *testing.T) {
	var buf bytes.Buffer
	qw := NewQuarantineWriter(&buf)
	q := Quarantined{Index: 3, Class: ClassDuplicate, Err: errors.New("dup"), Record: rec(9, 1, time.Hour, time.Minute)}
	if err := qw.Quarantine(q); err != nil {
		t.Fatal(err)
	}
	if err := qw.Close(); err != nil {
		t.Fatal(err)
	}
	line := buf.String()
	for _, want := range []string{"3\t", "duplicate", "dup"} {
		if !strings.Contains(line, want) {
			t.Fatalf("line %q missing %q", line, want)
		}
	}
}

// readerFunc adapts a closure to the Reader interface.
type readerFunc func() (Record, error)

func (f readerFunc) Read() (Record, error) { return f() }
