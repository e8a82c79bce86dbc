package cdr

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"time"

	"cellcars/internal/obs"
)

// This file implements the resilient ingest layer: a Reader wrapper
// that treats malformed records as expected input rather than fatal
// errors. The paper's own data set is dirty by construction —
// exactly-one-hour ghost records, stuck-teardown modems, and a 3-day
// partial data-loss window are first-class phenomena in §3 — and a
// carrier-scale pipeline must quarantine and account for bad records
// instead of dying on the first one.

// FailureClass labels why a record was quarantined.
type FailureClass int

// The failure classes, ordered roughly by how often real CDR feeds
// produce them.
const (
	// ClassBadField: an unparseable or invalid field value — bad CSV
	// syntax, a non-numeric column, an unknown carrier, a negative
	// duration, a zero start.
	ClassBadField FailureClass = iota
	// ClassTruncated: a partial trailing binary frame or header. The
	// stream ends after one such record.
	ClassTruncated
	// ClassTimeRange: a structurally valid record whose start falls
	// outside the configured time window.
	ClassTimeRange
	// ClassDuplicate: a record identical to the immediately preceding
	// one, as produced by at-least-once transport replays.
	ClassDuplicate
	// ClassRegression: a record whose start precedes the previous
	// record's start in a stream declared sorted.
	ClassRegression
	// ClassIO: an underlying I/O failure. Terminal unless transient
	// and retried.
	ClassIO
	// NumFailureClasses bounds the class enum for per-class arrays.
	NumFailureClasses
)

// String returns a short stable name for the class.
func (c FailureClass) String() string {
	switch c {
	case ClassBadField:
		return "bad-field"
	case ClassTruncated:
		return "truncated"
	case ClassTimeRange:
		return "time-range"
	case ClassDuplicate:
		return "duplicate"
	case ClassRegression:
		return "regression"
	case ClassIO:
		return "io-error"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// ErrTransient marks a retryable failure: wrapping an error with it
// (see Transient) tells a retry loop that the operation may succeed if
// repeated. ResilientReader repeats such a read up to
// ResilientConfig.TransientRetries times, and a checkpoint write
// repeats a failed attempt under its own bounded policy.
var ErrTransient = errors.New("transient")

// Transient wraps err as retryable.
func Transient(err error) error {
	return fmt.Errorf("%w: %w", ErrTransient, err)
}

// IsTransient reports whether err is marked retryable.
func IsTransient(err error) bool { return errors.Is(err, ErrTransient) }

// IngestStats accumulates the outcome of a resilient ingest pass.
type IngestStats struct {
	// Read counts records delivered downstream.
	Read int64
	// Quarantined counts rejected records by class.
	Quarantined [NumFailureClasses]int64
	// Retries counts transient-failure retries that were attempted.
	Retries int64
}

// Attempted returns the number of records seen: delivered plus
// quarantined.
func (s *IngestStats) Attempted() int64 { return s.Read + s.QuarantinedTotal() }

// QuarantinedTotal returns the total number of quarantined records.
func (s *IngestStats) QuarantinedTotal() int64 {
	var n int64
	for _, c := range s.Quarantined {
		n += c
	}
	return n
}

// Dominant returns the most populous failure class and its count.
func (s *IngestStats) Dominant() (FailureClass, int64) {
	best, n := ClassBadField, int64(0)
	for c, count := range s.Quarantined {
		if count > n {
			best, n = FailureClass(c), count
		}
	}
	return best, n
}

// ByClass returns the non-zero quarantine counts keyed by class name,
// for report rendering.
func (s *IngestStats) ByClass() map[string]int64 {
	out := make(map[string]int64)
	for c, count := range s.Quarantined {
		if count > 0 {
			out[FailureClass(c).String()] = count
		}
	}
	return out
}

// Quarantined describes one rejected record.
type Quarantined struct {
	// Index is the zero-based position in the input stream, counting
	// both delivered and quarantined records — over an OpenShard stream,
	// those of the shard's own rows.
	Index int64
	// Class labels the failure.
	Class FailureClass
	// Err is the classification error; always non-nil.
	Err error
	// Record holds the decoded record for classes detected after a
	// successful decode (time-range, duplicate, regression, and
	// re-validation failures); it is the zero Record when the decode
	// itself failed.
	Record Record
}

// QuarantineSink receives rejected records. A sink error aborts the
// ingest: losing quarantine evidence silently would defeat its
// purpose.
type QuarantineSink interface {
	Quarantine(Quarantined) error
}

// QuarantineWriter is a QuarantineSink writing one tab-separated line
// per rejected record (index, class, car, cell, start, duration,
// error) — a grep-able audit trail.
type QuarantineWriter struct {
	w *bufio.Writer
}

// NewQuarantineWriter returns a line-oriented sink over w.
func NewQuarantineWriter(w io.Writer) *QuarantineWriter {
	return &QuarantineWriter{w: bufio.NewWriter(w)}
}

// Quarantine writes one line.
func (q *QuarantineWriter) Quarantine(rec Quarantined) error {
	_, err := fmt.Fprintf(q.w, "%d\t%s\t%d\t%d\t%d\t%d\t%s\n",
		rec.Index, rec.Class, rec.Record.Car, uint64(rec.Record.Cell),
		rec.Record.Start.Unix(), int64(rec.Record.Duration/time.Second), rec.Err)
	return err
}

// Close flushes buffered lines.
func (q *QuarantineWriter) Close() error { return q.w.Flush() }

// ErrRefused marks an ingest that stopped because the input broke the
// run's own policy, not because reading failed: the first malformed
// record under Strict, or the error budget exceeded (*BudgetError).
// Reading the same input again under the same policy refuses it again,
// so a supervisor must not retry it as it would a crash.
var ErrRefused = errors.New("input refused")

// strictError is the refusal of the first malformed record under
// ResilientConfig.Strict.
type strictError struct {
	at    string // where the record sits in the input; "" when the source cannot say
	cause error
}

func (e *strictError) Error() string {
	if e.at == "" {
		return "cdr: strict mode: " + e.cause.Error()
	}
	return "cdr: strict mode: " + e.at + ": " + e.cause.Error()
}

func (e *strictError) Unwrap() error { return e.cause }

func (e *strictError) Is(target error) bool { return target == ErrRefused }

// BudgetError reports that the malformed-record fraction exceeded the
// configured error budget. The ingest stops at the first record that
// tips the budget; Stats describes the stream up to that point.
type BudgetError struct {
	// Stats is the ingest state at abort time.
	Stats IngestStats
	// Budget is the configured maximum malformed fraction.
	Budget float64
}

// Error names the dominant corruption class so operators can tell a
// truncated transfer from a schema drift at a glance.
func (e *BudgetError) Error() string {
	class, n := e.Stats.Dominant()
	return fmt.Sprintf(
		"cdr: error budget exceeded: %d of %d records malformed (budget %.2f%%), dominant class %s (%d records)",
		e.Stats.QuarantinedTotal(), e.Stats.Attempted(), e.Budget*100, class, n)
}

// Is makes a *BudgetError an ErrRefused.
func (e *BudgetError) Is(target error) bool { return target == ErrRefused }

// ResilientConfig tunes a ResilientReader. The zero value quarantines
// silently with a 1% error budget and no duplicate/regression/time
// checks.
type ResilientConfig struct {
	// Sink receives quarantined records; nil discards them (they are
	// still counted).
	Sink QuarantineSink
	// MaxBadFrac is the error budget: the ingest aborts with a
	// *BudgetError once quarantined/attempted exceeds it (checked
	// after MinRecords records). 0 means the default 1%; negative
	// disables the budget entirely.
	MaxBadFrac float64
	// MinRecords is the number of records attempted before the budget
	// is enforced, so a bad record at the head of a stream does not
	// abort on a 100% instantaneous rate. Default 1000.
	MinRecords int
	// Strict aborts on the first malformed record, regardless of
	// budget — the paper-faithful mode for curated inputs. The error
	// wraps ErrRefused and names where the record sits when the wrapped
	// reader can say (OpenFiles' and OpenShard's can).
	Strict bool
	// MinStart and MaxStart, when non-zero, quarantine records whose
	// start falls outside [MinStart, MaxStart) as ClassTimeRange.
	MinStart, MaxStart time.Time
	// FlagDuplicates quarantines records identical to the immediately
	// preceding delivered record.
	FlagDuplicates bool
	// FlagRegressions quarantines records whose start precedes the
	// previous delivered record's start. Only meaningful on streams
	// contractually sorted by start time.
	FlagRegressions bool
	// TransientRetries is how many times a transient I/O failure
	// (IsTransient) is retried before being returned. Default 3;
	// negative disables retries.
	TransientRetries int
	// RetryBackoff is the initial delay between transient retries,
	// doubling per attempt. Default 5ms; it exists so tests can run
	// retries without wall-clock cost.
	RetryBackoff time.Duration
	// Obs, when non-nil, receives live ingest metrics: delivered and
	// per-class quarantined record counts, rows a sharded source skipped,
	// transient retries, and the error-budget consumption gauge. Nil (the
	// default) costs nothing.
	Obs *obs.Registry
}

func (cfg *ResilientConfig) fill() {
	if cfg.MaxBadFrac == 0 {
		cfg.MaxBadFrac = 0.01
	}
	if cfg.MinRecords == 0 {
		cfg.MinRecords = 1000
	}
	if cfg.TransientRetries == 0 {
		cfg.TransientRetries = 3
	}
	if cfg.RetryBackoff == 0 {
		cfg.RetryBackoff = 5 * time.Millisecond
	}
}

// ResilientReader wraps a Reader and converts record-level failures
// into quarantine events instead of stream death. It classifies every
// failure (bad field, truncated frame, out-of-range time, duplicate,
// timestamp regression, I/O), forwards rejects to an optional sink,
// retries transient I/O errors with backoff, and enforces an error
// budget so a systematically corrupt input still fails fast with a
// diagnosis instead of quietly dropping most of its records.
//
// Decoded records are re-validated on the way through, so chaos or
// transport layers between the codec and this wrapper cannot smuggle
// structurally invalid records downstream.
type ResilientReader struct {
	r     Reader
	files *FilesReader // r again, when it is one: it can say where a row sits
	cfg   ResilientConfig
	stat  IngestStats

	index   int64 // records attempted so far (delivered + quarantined)
	prev    Record
	have    bool
	retries int   // transient failures retried since the last record
	done    error // sticky terminal state: io.EOF or a fatal error
	one     [1]Record

	met *ingestMetrics
}

// ingestMetrics holds the pre-resolved ingest series so the Read hot
// path never touches the registry maps. All handles are nil-safe.
type ingestMetrics struct {
	read        *obs.Counter
	skipped     *obs.Counter
	skips       *FilesReader // the sharded source whose skips skipped follows; nil without one
	skippedSeen int64        // skips already added to skipped
	quarantined [NumFailureClasses]*obs.Counter
	retries     *obs.Counter
	budgetUsed  *obs.Gauge
}

func newIngestMetrics(reg *obs.Registry) *ingestMetrics {
	if reg == nil {
		return nil
	}
	m := &ingestMetrics{
		read:       reg.Counter("cellcars_ingest_records_total"),
		skipped:    reg.Counter("cellcars_ingest_rows_skipped_total"),
		retries:    reg.Counter("cellcars_ingest_retries_total"),
		budgetUsed: reg.Gauge("cellcars_ingest_budget_used_ratio"),
	}
	for c := FailureClass(0); c < NumFailureClasses; c++ {
		m.quarantined[c] = reg.Counter("cellcars_ingest_quarantined_total",
			obs.Label{Key: "class", Value: c.String()})
	}
	return m
}

// NewResilientReader wraps r with the given config.
func NewResilientReader(r Reader, cfg ResilientConfig) *ResilientReader {
	cfg.fill()
	rr := &ResilientReader{r: r, cfg: cfg, met: newIngestMetrics(cfg.Obs)}
	rr.files, _ = r.(*FilesReader)
	if rr.met != nil && rr.files != nil && rr.files.own.sharded() {
		rr.met.skips = rr.files
	}
	return rr
}

// Stats returns a snapshot of the ingest counters. Valid at any
// point, including after an abort.
func (r *ResilientReader) Stats() IngestStats { return r.stat }

// Read returns the next acceptable record. It returns io.EOF at end
// of stream (including after a truncated tail, which is quarantined),
// a *BudgetError when the error budget is exhausted, or the
// underlying error for unrecoverable I/O failures. All terminal
// conditions are sticky.
func (r *ResilientReader) Read() (Record, error) { return ReadOne(r, &r.one) }

// ReadBatch reads acceptable records into dst as Read would; see
// BatchReader. It reads one batch of the wrapped reader into dst and
// checks its records in order, compacting the accepted ones in place;
// only when it kept none does it read again. A strict reader reads one
// row at a time, so that its refusal names the row it refuses.
func (r *ResilientReader) ReadBatch(dst []Record) (int, error) {
	if r.cfg.Strict {
		dst = dst[:min(len(dst), 1)]
	}
	n := 0
	for n == 0 && len(dst) > 0 && r.done == nil {
		k, err := ReadBatch(r.r, dst)
		r.met.Skipped()
		if k > 0 {
			r.retries = 0
		}
		for _, rec := range dst[:k] {
			r.index++
			class, cause := r.check(rec)
			if cause == nil {
				r.prev, r.have = rec, true
				r.stat.Read++
				dst[n] = rec
				n++
				continue
			}
			if qerr := r.quarantine(class, cause, rec); qerr != nil {
				r.done = qerr
				break
			}
		}
		r.met.Read(n)
		if err == nil || r.done != nil {
			continue
		}
		switch {
		case errors.Is(err, io.EOF):
			r.done = io.EOF
		case errors.Is(err, ErrTruncated):
			// One partial record, then nothing more can be framed:
			// quarantine it and end the stream.
			r.index++
			r.done = io.EOF
			if qerr := r.quarantine(ClassTruncated, err, Record{}); qerr != nil {
				r.done = qerr
			}
		case errors.Is(err, ErrBadRecord):
			r.index++
			if qerr := r.quarantine(ClassBadField, err, Record{}); qerr != nil {
				r.done = qerr
			}
		case IsTransient(err) && r.retries < r.cfg.TransientRetries:
			r.stat.Retries++
			r.met.Retries()
			sleepFn(r.cfg.RetryBackoff << r.retries)
			r.retries++
		default:
			r.stat.Quarantined[ClassIO]++
			r.met.Quarantined(r, ClassIO)
			r.done = err
		}
	}
	if n == 0 && r.done != nil {
		return 0, r.done
	}
	return n, nil
}

// check returns why rec is refused, or a nil cause when it is accepted.
func (r *ResilientReader) check(rec Record) (FailureClass, error) {
	if err := rec.Validate(); err != nil {
		return ClassBadField, err
	}
	if !r.cfg.MinStart.IsZero() && rec.Start.Before(r.cfg.MinStart) ||
		!r.cfg.MaxStart.IsZero() && !rec.Start.Before(r.cfg.MaxStart) {
		return ClassTimeRange, fmt.Errorf("cdr: start %s outside window [%s, %s)",
			rec.Start.Format(time.RFC3339), r.cfg.MinStart.Format(time.RFC3339),
			r.cfg.MaxStart.Format(time.RFC3339))
	}
	if r.have && r.cfg.FlagDuplicates && sameRecord(rec, r.prev) {
		return ClassDuplicate, fmt.Errorf("cdr: duplicate of previous record (car %d, cell %d, start %d)",
			rec.Car, uint64(rec.Cell), rec.Start.Unix())
	}
	if r.have && r.cfg.FlagRegressions && rec.Start.Before(r.prev.Start) {
		return ClassRegression, fmt.Errorf("cdr: start %d regresses behind previous %d in sorted stream",
			rec.Start.Unix(), r.prev.Start.Unix())
	}
	return 0, nil
}

// quarantine records one reject, forwards it to the sink, and checks
// the error budget. A non-nil return is terminal.
func (r *ResilientReader) quarantine(class FailureClass, cause error, rec Record) error {
	r.stat.Quarantined[class]++
	r.met.Quarantined(r, class)
	if r.cfg.Sink != nil {
		q := Quarantined{Index: r.index - 1, Class: class, Err: cause, Record: rec}
		if err := r.cfg.Sink.Quarantine(q); err != nil {
			return fmt.Errorf("cdr: quarantine sink: %w", err)
		}
	}
	if r.cfg.Strict {
		e := &strictError{cause: cause}
		if r.files != nil {
			e.at = r.files.Pos()
		}
		return e
	}
	if r.cfg.MaxBadFrac < 0 {
		return nil
	}
	attempted := r.stat.Attempted()
	if attempted < int64(r.cfg.MinRecords) {
		return nil
	}
	if frac := float64(r.stat.QuarantinedTotal()) / float64(attempted); frac > r.cfg.MaxBadFrac {
		return &BudgetError{Stats: r.stat, Budget: r.cfg.MaxBadFrac}
	}
	return nil
}

// Read records n delivered records.
func (m *ingestMetrics) Read(n int) {
	if m == nil || n == 0 {
		return
	}
	m.read.Add(int64(n))
}

// Skipped brings the skipped-rows counter up to what a sharded source
// has dropped so far.
func (m *ingestMetrics) Skipped() {
	if m == nil || m.skips == nil {
		return
	}
	if n := m.skips.Scan().Skipped; n != m.skippedSeen {
		m.skipped.Add(n - m.skippedSeen)
		m.skippedSeen = n
	}
}

// Retries records one transient-retry attempt.
func (m *ingestMetrics) Retries() {
	if m == nil {
		return
	}
	m.retries.Inc()
}

// Quarantined records one reject and refreshes the budget-used gauge
// (quarantined fraction of attempted records, relative to the budget).
func (m *ingestMetrics) Quarantined(r *ResilientReader, class FailureClass) {
	if m == nil {
		return
	}
	m.quarantined[class].Inc()
	if budget := r.cfg.MaxBadFrac; budget > 0 {
		if attempted := r.stat.Attempted(); attempted > 0 {
			frac := float64(r.stat.QuarantinedTotal()) / float64(attempted)
			m.budgetUsed.Set(frac / budget)
		}
	}
}

// sameRecord compares records field-wise, using time.Time.Equal so
// that wall-clock-equal starts with different internal representations
// still match.
func sameRecord(a, b Record) bool {
	return a.Car == b.Car && a.Cell == b.Cell && a.Duration == b.Duration && a.Start.Equal(b.Start)
}

// sleepFn is stubbed by tests to avoid wall-clock backoff delays.
var sleepFn = time.Sleep
