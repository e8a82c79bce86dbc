package query

import (
	"bytes"
	"fmt"
	"strconv"
	"time"

	"cellcars/internal/analysis"
)

// A window is folded from operands, oldest first: the encoding of each
// hourly bucket in its ragged first day, one roll-up for every whole
// day the live index has passed, one roll-up of the day so far, and
// the live bucket. The full 14 d window folds 13 roll-ups, the day so
// far and the live hour where it used to fold 336 buckets. A roll-up
// is kept as the accumulator its buckets fold to, so a miss restores
// only the ragged hours and the live one; a merge only reads its
// operand, so concurrent misses fold the same roll-up.
//
// Each day has one memo: the left fold of its first n buckets, with n
// recorded. A whole passed day is the memo at n = perDay; the current
// day is the memo at n = live − day start. A miss that finds the
// day's memo shorter extends it by only the buckets sealed since
// (usually one): fresh ⊕ memo ⊕ new buckets, installed in its place.
// Merging a memo into a fresh accumulator is an exact copy of it — the
// fresh side has no open tail to stitch and no head stashed, so every
// head is stashed, every tail kept open and every count added to zero
// as they were — so the extension is the left fold of the longer
// prefix, the memo a from-scratch build would make, bytes and overlap
// witnesses alike (TestRollupRepliesDoNotDependOnHistory).
//
// The operand list is a function of (window, live index, bucket
// width) alone: a day prefix that qualifies is always taken as its
// memo — built or extended on the spot when it is not memoised, never
// bypassed — so a reply does not depend on which windows were asked
// before, on whether the daemon restarted, or on what the cache held.
// That matters only for feeds outside the MergeOrdered precondition,
// where groupings can differ by a session (see analysis/ordered.go);
// inside it every grouping is the single pass.
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
	// rollup is the day's first n buckets restored and left-folded,
	// carrying the precondition witnesses of that fold; nil until a
	// miss needs it and after a late record. Nothing writes to it once
	// installed: an extension folds it into a new accumulator that
	// takes its place. It is derived state: never written to a cut.
	rollup *analysis.Streaming
	n      int
}

// operand is one term of a window fold: a bucket's encoding, a memoised
// roll-up, or the roll-up of a day's first n buckets still to be folded
// from parts — the day's shorter memo, if it has one, then the
// encodings of the buckets it lacks — captured at gen.
type operand struct {
	enc    []byte
	rollup *analysis.Streaming
	day, n int
	gen    uint64
	parts  []operand
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
		if s.perDay > 0 && idx%s.perDay == 0 && idx < s.live {
			// A day from its start: all of it once the live index has
			// passed it, else the day so far.
			n := min(s.perDay, s.live-idx)
			if op := s.dayOperandLocked(idx/s.perDay, n); op.rollup != nil || op.parts != nil {
				ops = append(ops, op)
			}
			idx += n
			continue
		}
		if b := s.buckets[idx]; b != nil {
			ops = append(ops, operand{enc: b.encoded})
		}
		idx++
	}
	return ops, epoch, nil
}

// dayOperandLocked returns a day's first n buckets as one operand: the
// day's memo if it covers them, or what to fold one from — its shorter
// memo, if it has one, then the refreshed encodings of the buckets the
// memo lacks. A memo lacking only empty buckets covers them already.
// A day prefix without a memo or buckets is the zero operand.
func (s *Store) dayOperandLocked(day, n int) operand {
	op := operand{day: day, n: n}
	start := day * s.perDay
	from := start
	d := s.days[day]
	if d != nil {
		op.gen = d.gen
		if d.rollup != nil && d.n <= n {
			op.parts = []operand{{rollup: d.rollup}}
			from += d.n
		}
	}
	for idx := from; idx < start+n; idx++ {
		if b := s.buckets[idx]; b != nil {
			op.parts = append(op.parts, operand{enc: b.encoded})
		}
	}
	if len(op.parts) == 1 && op.parts[0].rollup != nil {
		// The buckets it lacks are empty: it is the fold of n too.
		d.n = n
		return op.parts[0]
	}
	return op
}

// buildRollups builds or extends, in place, every roll-up of ops not yet
// memoised: the step between listing a window's operands and folding
// them.
func (s *Store) buildRollups(ops []operand) error {
	for i, op := range ops {
		if op.parts != nil {
			rollup, err := s.buildRollup(op)
			if err != nil {
				return err
			}
			ops[i] = operand{rollup: rollup}
		}
	}
	return nil
}

// buildRollup folds one day prefix into its roll-up, outside the store
// lock — from scratch, or as an extension of the day's shorter memo by
// the buckets sealed since — and memoises it unless a late record
// reached the day meanwhile or a later miss memoised a longer prefix.
// Either way the result describes the instant the operand was listed,
// which is what the caller's fold needs.
func (s *Store) buildRollup(op operand) (*analysis.Streaming, error) {
	s.buildMu.Lock()
	defer s.buildMu.Unlock()
	s.mu.Lock()
	if d := s.days[op.day]; d != nil && d.gen == op.gen && d.rollup != nil && d.n == op.n {
		// A miss ahead of us on buildMu built or extended it.
		rollup := d.rollup
		s.mu.Unlock()
		return rollup, nil
	}
	s.mu.Unlock()

	extend := op.parts[0].rollup != nil
	buckets := len(op.parts)
	if extend {
		buckets--
	}
	t0 := time.Now()
	rollup, err := s.fold(op.parts)
	if err != nil {
		return nil, fmt.Errorf("query: roll up day %d: %w", op.day, err)
	}
	s.trace.Emit("rollup:"+strconv.Itoa(buckets), time.Since(t0), rollup.Watermark())

	s.mu.Lock()
	defer s.mu.Unlock()
	if extend {
		s.rollupExtends++
		s.met.rollupExtends.Inc()
	} else {
		s.rollupBuilds++
		s.met.rollupBuilds.Inc()
	}
	switch d := s.dayLocked(op.day); {
	case d.gen != op.gen:
		s.noteInvalidLocked()
	case d.rollup == nil || d.n < op.n:
		d.rollup, d.n = rollup, op.n
	}
	return rollup, nil
}

// fold left-folds operands, oldest first, into a fresh accumulator
// with one MergeOrderedAll: a roll-up as it is, a bucket restored from
// its bytes. No operand changes, and the fold's OrderedOverlaps counts
// the witnesses the roll-ups carry besides its own.
func (s *Store) fold(ops []operand) (*analysis.Streaming, error) {
	laters := make([]*analysis.Streaming, len(ops))
	for i, op := range ops {
		laters[i] = op.rollup
		if laters[i] == nil {
			var err error
			if laters[i], err = analysis.RestoreStreaming(s.ctx, s.opts, bytes.NewBuffer(op.enc)); err != nil {
				return nil, fmt.Errorf("query: restore operand %d: %w", i, err)
			}
		}
	}
	acc := analysis.NewStreamingWithOptions(s.ctx, s.opts)
	if err := acc.MergeOrderedAll(laters); err != nil {
		return nil, fmt.Errorf("query: fold: %w", err)
	}
	return acc, nil
}

// compose answers one window as of one instant: list the operands,
// build or extend the roll-ups not yet memoised, fold, finalize. An
// empty window folds nothing: the zero report. It returns the live
// index the operands were listed at; endpoint labels the compose span
// in the run trace. A panic in a stage's merge, which the fold raises
// here once its stages have joined, fails this query only.
func (s *Store) compose(endpoint string, w Window) (_ *analysis.StreamReport, epoch int, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("query: %s over %s: panic: %v", endpoint, w.Name, p)
		}
	}()
	ops, epoch, err := s.windowOperands(w)
	if err != nil {
		return nil, epoch, err
	}
	t0 := time.Now()
	if err := s.buildRollups(ops); err != nil {
		return nil, epoch, err
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
