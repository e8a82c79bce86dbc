package query

import (
	"bytes"
	"fmt"
	"time"

	"cellcars/internal/analysis"
)

// A window is folded from operands, oldest first: the encoding of each
// hourly bucket in its ragged first day and in the current day, and
// one roll-up for every whole day the live index has passed in
// between. The full 14 d window folds 13 roll-ups and at most 24 hours
// where it used to fold 336 buckets.
//
// The operand list is a function of (window, live index, bucket
// width) alone: a day that qualifies is always taken as its roll-up —
// built on the spot when it is not memoised, never bypassed — so a
// reply does not depend on which windows were asked before, on whether
// the daemon restarted, or on what the cache held. That matters only
// for feeds outside the MergeOrdered precondition, where groupings can
// differ by a session (see analysis/ordered.go); inside it every
// grouping is the single pass.
//
// There is one level, fixed at a day, and no setting: a bucket width
// that does not divide 24 h, or is not below it, has no roll-ups and
// folds bucket by bucket.
const rollupSpan = 24 * time.Hour

// dayState is what the store knows about one roll-up day.
type dayState struct {
	// gen counts the late records into the day. A roll-up folded
	// outside the lock is installed only if gen did not move meanwhile.
	gen uint64
	// rollup is the day's buckets restored, left-folded and encoded
	// again; nil until a miss needs it and after a late record. It is
	// derived state: never written to a cut.
	rollup []byte
	// overlaps is the precondition witness count of the fold that built
	// rollup, which the encoding does not carry.
	overlaps int64
}

// operand is one term of a window fold.
type operand struct {
	// enc is a bucket's encoding or a memoised roll-up; nil for a
	// roll-up still to be built from hours, captured at gen.
	enc      []byte
	overlaps int64
	day      int
	gen      uint64
	hours    [][]byte
}

// invalidateDayLocked records a late record into bucket idx: whatever
// roll-up its day has, or is having built, no longer describes it.
func (s *Store) invalidateDayLocked(idx int) {
	if s.perDay == 0 {
		return
	}
	d := s.dayLocked(idx / s.perDay)
	d.gen++
	if d.rollup != nil {
		d.rollup = nil
		s.noteInvalidLocked()
	}
}

// dayLocked returns a day's state, creating it on first mention.
func (s *Store) dayLocked(day int) *dayState {
	d := s.days[day]
	if d == nil {
		d = &dayState{}
		s.days[day] = d
	}
	return d
}

func (s *Store) noteInvalidLocked() {
	s.rollupInvalid++
	s.met.rollupInvalid.Inc()
}

// windowOperands lists a window's operands at one instant of the
// ingest, under the lock: it first refreshes every stale bucket
// encoding of the window together (and seals the passed buckets) —
// the buckets of memoised days are clean and sealed already, so they
// cost a look — then lists the encodings and memoised roll-ups.
func (s *Store) windowOperands(w Window) (ops []operand, epoch int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	epoch = s.live
	first := max(0, s.live-int(w.Span/s.width)+1)
	var idxs []int
	for idx := first; idx <= s.live; idx++ {
		if s.buckets[idx] != nil {
			idxs = append(idxs, idx)
		}
	}
	if err := s.refreshLocked(idxs); err != nil {
		return nil, epoch, err
	}
	for idx := first; idx <= s.live; {
		if s.perDay > 0 && idx%s.perDay == 0 && idx+s.perDay <= s.live {
			if op := s.dayOperandLocked(idx / s.perDay); op.enc != nil || op.hours != nil {
				ops = append(ops, op)
			}
			idx += s.perDay
			continue
		}
		if b := s.buckets[idx]; b != nil {
			ops = append(ops, operand{enc: b.encoded})
		}
		idx++
	}
	return ops, epoch, nil
}

// dayOperandLocked returns a whole passed day as one operand: its
// memoised roll-up, or the refreshed encodings to build one from. A
// day without buckets is the zero operand.
func (s *Store) dayOperandLocked(day int) operand {
	op := operand{day: day}
	if d := s.days[day]; d != nil {
		if d.rollup != nil {
			return operand{enc: d.rollup, overlaps: d.overlaps}
		}
		op.gen = d.gen
	}
	for idx := day * s.perDay; idx < (day+1)*s.perDay; idx++ {
		if b := s.buckets[idx]; b != nil {
			op.hours = append(op.hours, b.encoded)
		}
	}
	return op
}

// buildRollup folds one day's hours into its roll-up, outside the
// store lock, and memoises it unless a late record reached the day
// meanwhile. Either way the result describes the instant the operand
// was listed, which is what the caller's fold needs.
func (s *Store) buildRollup(op operand) (enc []byte, overlaps int64, err error) {
	s.buildMu.Lock()
	defer s.buildMu.Unlock()
	s.mu.Lock()
	if d := s.days[op.day]; d != nil && d.gen == op.gen && d.rollup != nil {
		// A miss ahead of us on buildMu built it.
		enc, overlaps = d.rollup, d.overlaps
		s.mu.Unlock()
		return enc, overlaps, nil
	}
	s.mu.Unlock()

	t0 := time.Now()
	acc, err := s.foldEncoded(op.hours)
	if err != nil {
		return nil, 0, fmt.Errorf("query: roll up day %d: %w", op.day, err)
	}
	overlaps = acc.OrderedOverlaps()
	var buf bytes.Buffer
	if err := acc.SnapshotTo(&buf); err != nil {
		return nil, 0, fmt.Errorf("query: encode day %d roll-up: %w", op.day, err)
	}
	enc = bytes.Clone(buf.Bytes())
	s.trace.Emit("rollup", time.Since(t0), acc.Watermark())

	s.mu.Lock()
	defer s.mu.Unlock()
	s.rollupBuilds++
	s.met.rollupBuilds.Inc()
	if d := s.dayLocked(op.day); d.gen == op.gen {
		d.rollup, d.overlaps = enc, overlaps
	} else {
		s.noteInvalidLocked()
	}
	return enc, overlaps, nil
}

// foldEncoded restores each encoding and left-folds them in time
// order. No encodings fold to nil.
func (s *Store) foldEncoded(encs [][]byte) (*analysis.Streaming, error) {
	var acc *analysis.Streaming
	for i, enc := range encs {
		restored, err := analysis.RestoreStreaming(s.ctx, s.opts, bytes.NewBuffer(enc))
		if err != nil {
			return nil, fmt.Errorf("query: restore operand %d: %w", i, err)
		}
		if acc == nil {
			acc = restored
			continue
		}
		if err := acc.MergeOrdered(restored); err != nil {
			return nil, fmt.Errorf("query: fold operand %d: %w", i, err)
		}
	}
	return acc, nil
}

// compose answers one window as of one instant: list the operands,
// build the roll-ups not yet memoised, fold, finalize. An empty window
// finalizes a fresh accumulator: the zero report. It returns the live
// index the operands were listed at; endpoint labels the compose span
// in the run trace.
func (s *Store) compose(endpoint string, w Window) (*analysis.StreamReport, int, error) {
	ops, epoch, err := s.windowOperands(w)
	if err != nil {
		return nil, epoch, err
	}
	t0 := time.Now()
	encs := make([][]byte, len(ops))
	var overlaps int64
	for i, op := range ops {
		if op.enc == nil {
			if op.enc, op.overlaps, err = s.buildRollup(op); err != nil {
				return nil, epoch, err
			}
		}
		encs[i] = op.enc
		overlaps += op.overlaps
	}
	acc, err := s.foldEncoded(encs)
	if err != nil {
		return nil, epoch, err
	}
	if acc == nil {
		acc = analysis.NewStreamingWithOptions(s.ctx, s.opts)
	}
	overlaps += acc.OrderedOverlaps()
	rep := acc.Finalize()
	s.met.foldSeconds.Observe(time.Since(t0))
	s.trace.Emit("compose:"+endpoint+"/"+w.Name, time.Since(t0), rep.Records)
	s.mu.Lock()
	s.overlaps[w.Name] = overlaps
	s.mu.Unlock()
	return &rep, epoch, nil
}
