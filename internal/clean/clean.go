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
	"math/bits"
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

// HandoversByKind counts the transitions between consecutive spans,
// indexed by kind. Consecutive spans on the same cell are not handovers;
// the HandoverNone entry stays zero.
func (s *Session) HandoversByKind() (byKind [radio.NumHandoverKinds]int) {
	for i := 1; i < len(s.Spans); i++ {
		if k := radio.ClassifyHandover(s.Spans[i-1].Cell, s.Spans[i].Cell); k != radio.HandoverNone {
			byKind[k]++
		}
	}
	return byKind
}

// Sessionizer concatenates a record stream into per-car sessions. Feed
// it records in global or per-car time order; each Add returns any
// sessions that the new record proves closed, and Flush returns the
// remainder. The zero value is unusable; construct with NewSessionizer.
//
// A session Add returns belongs to the caller. A caller that is done
// with one may hand it back with Release, and a sessionizer whose
// caller always does allocates nothing in steady state: closed structs
// and their span arrays are reused for the sessions that open next. A
// caller that never releases gets what it always got, garbage-collected
// sessions.
type Sessionizer struct {
	gap  time.Duration
	open map[cdr.CarID]*Session
	// freeSessions holds released structs, Spans nil.
	freeSessions []*Session
	// freeSpans[k] holds released span arrays of capacity exactly 1<<k.
	freeSpans [spanClasses][][]CellSpan
}

// spanClasses is how many power-of-two capacities (1, 2, … 16 spans)
// are recycled. An open session grows through them exactly as append
// would have grown it, so pooling never leaves a session holding more
// than append gave it; past the last class growth is append's, and the
// array goes to the garbage collector when its session does. Every
// class retains its own high-water count of arrays, which is why the
// classes stop somewhere: on the 1 600-car fleet one more class (32
// spans) turns 2.87 MB of engine state into 3.71 MB for 0.04 fewer
// allocations per record, one fewer leaves 0.23 per record where this
// leaves 0.10 (DESIGN §2.1 has the table).
const spanClasses = 5

// spanClass returns the class holding arrays of capacity c, or -1 when
// c is not a pooled capacity.
func spanClass(c int) int {
	if c == 0 || c&(c-1) != 0 || c > 1<<(spanClasses-1) {
		return -1
	}
	return bits.TrailingZeros(uint(c))
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
// sessionizer keeps no reference to it or its spans (see Release).
func (z *Sessionizer) Add(rec cdr.Record) *Session {
	// The record's clock is converted once; everything after is integer
	// arithmetic.
	sp := CellSpan{Cell: rec.Cell, Start: rec.Start.UnixNano(), Duration: rec.Duration}
	end := sp.End()
	cur := z.open[rec.Car]
	if cur == nil {
		cur = z.takeSession()
		z.begin(cur, rec.Car, sp, end)
		z.open[rec.Car] = cur
		return nil
	}
	if z.splits(cur.End, sp.Start) {
		// The finished session moves out to a spare struct and the
		// map's entry starts the next one in place: one map operation
		// per record, closing or not.
		closed := z.takeSession()
		*closed = *cur
		z.begin(cur, rec.Car, sp, end)
		return closed
	}
	if len(cur.Spans) == cap(cur.Spans) {
		cur.Spans = z.grow(cur.Spans)
	}
	cur.Spans = append(cur.Spans, sp)
	cur.Connected += sp.Duration
	cur.End = max(cur.End, end)
	return nil
}

// splits reports whether a connection starting at start lies more than
// the gap after a session ending at end — the rule that closes the
// session. Both are Unix nanoseconds; the difference is taken unsigned,
// so it is exact, as time.Time.Sub's saturation was, across the whole
// int64 range. The analysis stages that keep sessions without a
// sessionizer apply the same rule.
func (z *Sessionizer) splits(end, start int64) bool {
	return start > end && uint64(start)-uint64(end) > uint64(z.gap)
}

// Release takes back a session the caller owns outright and is done
// with — one returned by Add or Take, or a Flush element whose address
// the caller took — for reuse by the sessions that open next. Nothing
// else may still reference the session or its Spans: both are
// overwritten. Releasing is optional, and a session from another
// sessionizer is as good as one of z's own.
func (z *Sessionizer) Release(s *Session) {
	z.push(s.Spans)
	*s = Session{}
	z.freeSessions = append(z.freeSessions, s)
}

func (z *Sessionizer) takeSession() *Session {
	if n := len(z.freeSessions); n > 0 {
		s := z.freeSessions[n-1]
		z.freeSessions = z.freeSessions[:n-1]
		return s
	}
	return new(Session)
}

// takeSpans returns an empty span array of capacity 1<<class.
func (z *Sessionizer) takeSpans(class int) []CellSpan {
	free := z.freeSpans[class]
	if n := len(free); n > 0 {
		z.freeSpans[class] = free[:n-1]
		return free[n-1]
	}
	return make([]CellSpan, 0, 1<<class)
}

// push files a span array nobody references any more under its
// capacity class. Arrays of any other capacity — a restored or stitched
// session's, or one grown past the last class — are left to the garbage
// collector.
func (z *Sessionizer) push(spans []CellSpan) {
	if class := spanClass(cap(spans)); class >= 0 {
		z.freeSpans[class] = append(z.freeSpans[class], spans[:0])
	}
}

// grow moves a full span array into the next capacity class. A full
// array outside the pooled classes is returned as it is, for append to
// grow.
func (z *Sessionizer) grow(spans []CellSpan) []CellSpan {
	class := spanClass(cap(spans))
	if class < 0 || class+1 == spanClasses {
		return spans
	}
	bigger := z.takeSpans(class + 1)[:len(spans)]
	copy(bigger, spans)
	z.push(spans)
	return bigger
}

// begin makes s the one-span session a record of car opens.
func (z *Sessionizer) begin(s *Session, car cdr.CarID, sp CellSpan, end int64) {
	*s = Session{
		Car:       car,
		Start:     sp.Start,
		End:       end,
		Connected: sp.Duration,
		Spans:     append(z.takeSpans(0), sp),
	}
}

// RestoreOpen replaces the sessionizer's open-session state with the
// given sessions (at most one per car; a later session for the same
// car replaces an earlier one) — the restore half of checkpointing.
// Like Put it adopts: the sessions become the open sessions, span
// arrays and all, and the caller keeps no reference to either.
func (z *Sessionizer) RestoreOpen(sessions []*Session) {
	z.open = make(map[cdr.CarID]*Session, len(sessions))
	for _, s := range sessions {
		z.open[s.Car] = s
	}
}

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
