// Package clean implements the paper's §3 preprocessing over raw CDR
// streams: removal of erroneous exactly-one-hour records, truncation
// of implausibly long per-cell connections to 600 seconds, and
// concatenation of nearby connections into sessions — aggregate
// sessions (gap ≤ 30 s) for usage analyses and mobility sessions
// (gap ≤ 10 min) for handover analyses (§4.5).
package clean

import (
	"cmp"
	"errors"
	"io"
	"slices"
	"time"

	"cellcars/internal/cdr"
	"cellcars/internal/radio"
)

// Preprocessing constants from the paper.
const (
	// GhostDuration is the duration of the erroneous records caused by
	// the network's periodic reporting feature; records lasting exactly
	// this long are dropped (§3).
	GhostDuration = time.Hour
	// TruncateLimit caps a single-cell connection's duration,
	// mitigating modems that improperly fail to disconnect (§3).
	TruncateLimit = 600 * time.Second
	// AggregateGap is the maximum gap between connections concatenated
	// into one aggregate session (§3).
	AggregateGap = 30 * time.Second
	// MobilityGap is the maximum gap between connections within one
	// mobility session for handover accounting (§4.5).
	MobilityGap = 10 * time.Minute
)

// RemoveGhosts filters out records whose duration is exactly
// GhostDuration.
func RemoveGhosts(r cdr.Reader) cdr.Reader {
	return cdr.FilterFunc(r, func(rec cdr.Record) bool {
		return rec.Duration != GhostDuration
	})
}

// Truncate caps every record's duration at limit.
func Truncate(r cdr.Reader, limit time.Duration) cdr.Reader {
	return &truncateReader{r: r, limit: limit}
}

type truncateReader struct {
	r     cdr.Reader
	limit time.Duration
}

func (t *truncateReader) Read() (cdr.Record, error) {
	rec, err := t.r.Read()
	if err != nil {
		return cdr.Record{}, err
	}
	if rec.Duration > t.limit {
		rec.Duration = t.limit
	}
	return rec, nil
}

// Standard returns the paper's standard cleaning chain: ghost removal
// followed by 600-second truncation.
func Standard(r cdr.Reader) cdr.Reader {
	return Truncate(RemoveGhosts(r), TruncateLimit)
}

// CellSpan is one cell connection within a session.
type CellSpan struct {
	Cell     radio.CellKey
	Start    time.Time
	Duration time.Duration
}

// Session is a concatenation of one car's connections whose gaps never
// exceed the sessionizer's gap parameter.
type Session struct {
	Car cdr.CarID
	// Start is the first connection's start; End is the latest
	// connection end seen (connections may overlap).
	Start, End time.Time
	// Connected is the sum of connection durations, which can exceed
	// End.Sub(Start) when connections overlap.
	Connected time.Duration
	// Spans are the individual cell connections in arrival order.
	Spans []CellSpan
}

// Duration returns the session's wall-clock extent.
func (s *Session) Duration() time.Duration { return s.End.Sub(s.Start) }

// Handovers counts the transitions between consecutive spans by kind.
// Consecutive spans on the same cell count as HandoverNone and are not
// reported.
func (s *Session) Handovers() map[radio.HandoverKind]int {
	out := make(map[radio.HandoverKind]int)
	for i := 1; i < len(s.Spans); i++ {
		k := radio.ClassifyHandover(s.Spans[i-1].Cell, s.Spans[i].Cell)
		if k != radio.HandoverNone {
			out[k]++
		}
	}
	return out
}

// NumHandovers returns the total handover count in the session.
func (s *Session) NumHandovers() int {
	n := 0
	for i := 1; i < len(s.Spans); i++ {
		if radio.ClassifyHandover(s.Spans[i-1].Cell, s.Spans[i].Cell) != radio.HandoverNone {
			n++
		}
	}
	return n
}

// Sessionizer concatenates a record stream into per-car sessions. Feed
// it records in global or per-car time order; each Add returns any
// sessions that the new record proves closed, and Flush returns the
// remainder. The zero value is unusable; construct with NewSessionizer.
type Sessionizer struct {
	gap  time.Duration
	open map[cdr.CarID]*Session
}

// NewSessionizer returns a sessionizer with the given maximum
// concatenation gap. It panics on a non-positive gap.
func NewSessionizer(gap time.Duration) *Sessionizer {
	if gap <= 0 {
		panic("clean: sessionizer gap must be positive")
	}
	return &Sessionizer{gap: gap, open: make(map[cdr.CarID]*Session)}
}

// Add feeds one record and returns the session it closed, if any.
// Records for one car must arrive in non-decreasing start order.
func (z *Sessionizer) Add(rec cdr.Record) *Session {
	cur := z.open[rec.Car]
	if cur != nil && rec.Start.Sub(cur.End) > z.gap {
		z.open[rec.Car] = newSession(rec)
		return cur
	}
	if cur == nil {
		z.open[rec.Car] = newSession(rec)
		return nil
	}
	cur.Spans = append(cur.Spans, CellSpan{Cell: rec.Cell, Start: rec.Start, Duration: rec.Duration})
	cur.Connected += rec.Duration
	if rec.End().After(cur.End) {
		cur.End = rec.End()
	}
	return nil
}

// Snapshot returns a copy of every still-open session, ordered by
// (car, start) for determinism, without closing them: unlike Flush it
// leaves the sessionizer's state untouched, so accumulators can
// finalize repeatedly while records keep arriving.
func (z *Sessionizer) Snapshot() []Session {
	out := make([]Session, 0, len(z.open))
	for _, s := range z.open {
		c := *s
		c.Spans = append([]CellSpan(nil), s.Spans...)
		out = append(out, c)
	}
	sortSessions(out)
	return out
}

// RestoreOpen replaces the sessionizer's open-session state with the
// given sessions (at most one per car, as produced by Snapshot) — the
// restore half of checkpointing. Sessions are copied in; a later
// session for the same car replaces an earlier one.
func (z *Sessionizer) RestoreOpen(sessions []Session) {
	z.open = make(map[cdr.CarID]*Session, len(sessions))
	for i := range sessions {
		s := sessions[i]
		s.Spans = append([]CellSpan(nil), sessions[i].Spans...)
		z.open[s.Car] = &s
	}
}

// Gap returns the maximum concatenation gap the sessionizer was
// constructed with.
func (z *Sessionizer) Gap() time.Duration { return z.gap }

// Open returns the live open session for one car, or nil. The caller
// may mutate it in place; the session stays open.
func (z *Sessionizer) Open(car cdr.CarID) *Session { return z.open[car] }

// Take removes and returns one car's open session without accounting
// it anywhere — the surgical half of an ordered (time-sliced) merge,
// where the caller decides whether the session closed or continues in
// an adjacent slice.
func (z *Sessionizer) Take(car cdr.CarID) *Session {
	s := z.open[car]
	delete(z.open, car)
	return s
}

// Put installs a session as one car's open session, replacing any
// current one. The session is adopted, not copied.
func (z *Sessionizer) Put(s *Session) { z.open[s.Car] = s }

// OpenCars returns the cars with an open session, ascending — the
// deterministic iteration order for ordered merges.
func (z *Sessionizer) OpenCars() []cdr.CarID {
	out := make([]cdr.CarID, 0, len(z.open))
	for car := range z.open {
		out = append(out, car)
	}
	slices.Sort(out)
	return out
}

// Flush closes and returns every open session, ordered by car id
// ascending for determinism. The sessionizer is reusable afterwards.
func (z *Sessionizer) Flush() []Session {
	out := make([]Session, 0, len(z.open))
	for _, s := range z.open {
		out = append(out, *s)
	}
	z.open = make(map[cdr.CarID]*Session)
	sortSessions(out)
	return out
}

func newSession(rec cdr.Record) *Session {
	return &Session{
		Car:       rec.Car,
		Start:     rec.Start,
		End:       rec.End(),
		Connected: rec.Duration,
		Spans:     []CellSpan{{Cell: rec.Cell, Start: rec.Start, Duration: rec.Duration}},
	}
}

// Sessions drains the reader through a sessionizer and returns every
// session, in closing order with the flush tail sorted by car.
func Sessions(r cdr.Reader, gap time.Duration) ([]Session, error) {
	z := NewSessionizer(gap)
	var out []Session
	for {
		rec, err := r.Read()
		if err != nil {
			if errors.Is(err, io.EOF) {
				out = append(out, z.Flush()...)
				return out, nil
			}
			return out, err
		}
		if s := z.Add(rec); s != nil {
			out = append(out, *s)
		}
	}
}

// sortSessions orders by (car, start). Its callers hand it one session
// per car in map iteration order, so the keys are unique and the input
// is a random permutation.
func sortSessions(s []Session) {
	slices.SortFunc(s, func(a, b Session) int {
		if c := cmp.Compare(a.Car, b.Car); c != 0 {
			return c
		}
		return a.Start.Compare(b.Start)
	})
}
