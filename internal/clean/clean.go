// Package clean implements the paper's §3 preprocessing over raw CDR
// streams: removal of erroneous exactly-one-hour records, the
// 600-second limit that implausibly long per-cell connections are
// truncated to (TruncateLimit; the analysis stages apply it where the
// paper does), and concatenation of nearby connections into sessions —
// aggregate sessions (gap ≤ 30 s) for usage analyses and mobility
// sessions (gap ≤ 10 min) for handover analyses (§4.5).
package clean

import (
	"cmp"
	"errors"
	"io"
	"math"
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

// CellSpan is one cell connection within a session. Start is in Unix
// nanoseconds, the clock a snapshot stores: a span holds no pointer, so
// span arrays cost the garbage collector no scan and a copy no write
// barrier. Convert with time.Unix(0, Start) where wall-clock time is
// needed.
type CellSpan struct {
	Cell     radio.CellKey
	Start    int64
	Duration time.Duration
}

// End returns the instant the connection ended, in Unix nanoseconds. It
// saturates at the ends of the int64 range: a connection lasting past
// 2262 ends there, which every gap decision treats as it treats the
// true end.
func (sp CellSpan) End() int64 {
	end := sp.Start + int64(sp.Duration)
	if (end < sp.Start) != (sp.Duration < 0) {
		if sp.Duration < 0 {
			return math.MinInt64
		}
		return math.MaxInt64
	}
	return end
}

// Session is a concatenation of one car's connections whose gaps never
// exceed the sessionizer's gap parameter.
type Session struct {
	Car cdr.CarID
	// Start is the first connection's start; End is the latest
	// connection end seen (connections may overlap). Both are Unix
	// nanoseconds, as CellSpan.Start is.
	Start, End int64
	// Connected is the sum of connection durations, which can exceed
	// End − Start when connections overlap.
	Connected time.Duration
	// Spans are the individual cell connections in arrival order.
	Spans []CellSpan
}

// HandoversByKind counts the transitions between consecutive spans of a
// session, indexed by kind. Consecutive spans on the same cell are not
// handovers; the HandoverNone entry stays zero.
func HandoversByKind(spans []CellSpan) (byKind [radio.NumHandoverKinds]int) {
	for i := 1; i < len(spans); i++ {
		if k := radio.ClassifyHandover(spans[i-1].Cell, spans[i].Cell); k != radio.HandoverNone {
			byKind[k]++
		}
	}
	return byKind
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
// Records for one car must arrive in non-decreasing start order, and
// their starts must lie where UnixNano is defined (1677-09-21 to
// 2262-04-11; every record a study period admits does, see
// simtime.CheckPeriod). The returned session is the caller's: the
// sessionizer keeps no reference to it or its spans.
func (z *Sessionizer) Add(rec cdr.Record) *Session {
	// The record's clock is converted once; everything after is integer
	// arithmetic.
	sp := CellSpan{Cell: rec.Cell, Start: rec.Start.UnixNano(), Duration: rec.Duration}
	end := sp.End()
	cur := z.open[rec.Car]
	if cur == nil {
		s := opened(rec.Car, sp, end)
		z.open[rec.Car] = &s
		return nil
	}
	// The gap is taken unsigned, so it is exact, as time.Time.Sub's
	// saturation was, across the whole int64 range; the analysis stages,
	// which split sessions without a sessionizer, apply the same rule.
	if sp.Start > cur.End && uint64(sp.Start)-uint64(cur.End) > uint64(z.gap) {
		// The finished session moves out and the map's entry starts the
		// next one in place: one map operation per record, closing or not.
		closed := *cur
		*cur = opened(rec.Car, sp, end)
		return &closed
	}
	cur.Spans = append(cur.Spans, sp)
	cur.Connected += sp.Duration
	cur.End = max(cur.End, end)
	return nil
}

// opened is the one-span session a connection of car opens.
func opened(car cdr.CarID, sp CellSpan, end int64) Session {
	return Session{Car: car, Start: sp.Start, End: end, Connected: sp.Duration, Spans: []CellSpan{sp}}
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

// sortSessions orders by (car, start). Flush hands it one session per
// car in map iteration order, so the keys are unique and the input is a
// random permutation.
func sortSessions(s []Session) {
	slices.SortFunc(s, func(a, b Session) int {
		if c := cmp.Compare(a.Car, b.Car); c != 0 {
			return c
		}
		return cmp.Compare(a.Start, b.Start)
	})
}
