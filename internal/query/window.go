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
// where it used to fold 336 buckets. A roll-up is kept as the
// accumulator its day folds to, so a miss restores only hourly
// buckets; a merge only reads its operand, so concurrent misses fold
// the same roll-up.
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
	// rollup is the day's buckets restored and left-folded, carrying
	// the precondition witnesses of that fold; nil until a miss needs
	// it and after a late record. Nothing writes to it once installed.
	// It is derived state: never written to a cut.
	rollup *analysis.Streaming
}

// operand is one term of a window fold: a bucket's encoding, a memoised
// roll-up, or a roll-up still to be built from the day's hours,
// captured at gen.
type operand struct {
	enc    []byte
	rollup *analysis.Streaming
	day    int
	gen    uint64
	hours  []operand
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
			if op := s.dayOperandLocked(idx / s.perDay); op.rollup != nil || op.hours != nil {
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
			return operand{rollup: d.rollup}
		}
		op.gen = d.gen
	}
	for idx := day * s.perDay; idx < (day+1)*s.perDay; idx++ {
		if b := s.buckets[idx]; b != nil {
			op.hours = append(op.hours, operand{enc: b.encoded})
		}
	}
	return op
}

// buildRollup folds one day's hours into its roll-up, outside the
// store lock, and memoises it unless a late record reached the day
// meanwhile. Either way the result describes the instant the operand
// was listed, which is what the caller's fold needs.
func (s *Store) buildRollup(op operand) (*analysis.Streaming, error) {
	s.buildMu.Lock()
	defer s.buildMu.Unlock()
	s.mu.Lock()
	if d := s.days[op.day]; d != nil && d.gen == op.gen && d.rollup != nil {
		// A miss ahead of us on buildMu built it.
		rollup := d.rollup
		s.mu.Unlock()
		return rollup, nil
	}
	s.mu.Unlock()

	t0 := time.Now()
	rollup, err := s.fold(op.hours)
	if err != nil {
		return nil, fmt.Errorf("query: roll up day %d: %w", op.day, err)
	}
	s.trace.Emit("rollup", time.Since(t0), rollup.Watermark())

	s.mu.Lock()
	defer s.mu.Unlock()
	s.rollupBuilds++
	s.met.rollupBuilds.Inc()
	if d := s.dayLocked(op.day); d.gen == op.gen {
		d.rollup = rollup
	} else {
		s.noteInvalidLocked()
	}
	return rollup, nil
}

// fold left-folds operands, oldest first, into a fresh accumulator with
// MergeOrdered: a roll-up as it is, a bucket restored from its bytes.
// No operand changes, and the fold's OrderedOverlaps counts the
// witnesses the roll-ups carry besides its own.
func (s *Store) fold(ops []operand) (*analysis.Streaming, error) {
	acc := analysis.NewStreamingWithOptions(s.ctx, s.opts)
	for i, op := range ops {
		later := op.rollup
		if later == nil {
			var err error
			if later, err = analysis.RestoreStreaming(s.ctx, s.opts, bytes.NewBuffer(op.enc)); err != nil {
				return nil, fmt.Errorf("query: restore operand %d: %w", i, err)
			}
		}
		if err := acc.MergeOrdered(later); err != nil {
			return nil, fmt.Errorf("query: fold operand %d: %w", i, err)
		}
	}
	return acc, nil
}

// compose answers one window as of one instant: list the operands,
// build the roll-ups not yet memoised, fold, finalize. An empty window
// folds nothing: the zero report. It returns the live index the
// operands were listed at; endpoint labels the compose span in the run
// trace.
func (s *Store) compose(endpoint string, w Window) (*analysis.StreamReport, int, error) {
	ops, epoch, err := s.windowOperands(w)
	if err != nil {
		return nil, epoch, err
	}
	t0 := time.Now()
	for i, op := range ops {
		if op.hours != nil {
			if ops[i].rollup, err = s.buildRollup(op); err != nil {
				return nil, epoch, err
			}
		}
	}
	acc, err := s.fold(ops)
	if err != nil {
		return nil, epoch, err
	}
	rep := acc.Finalize()
	s.met.foldSeconds.Observe(time.Since(t0))
	s.trace.Emit("compose:"+endpoint+"/"+w.Name, time.Since(t0), rep.Records)
	s.mu.Lock()
	s.overlaps[w.Name] = acc.OrderedOverlaps()
	s.mu.Unlock()
	return &rep, epoch, nil
}
