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
// the live bucket. A window that starts at the study's first bucket
// takes its whole passed days as one operand instead, the study memo
// below, so the full 14 d window folds three operands — that memo, the
// day so far and the live hour — however many days have passed, where
// hour by hour it would fold 336 buckets. A roll-up is kept as the
// accumulator its buckets fold to, so a miss restores only the ragged
// hours and the live one; a merge only reads its operand, so
// concurrent misses fold the same roll-up.
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
// The study memo is the same thing one level up: the left fold of the
// day roll-ups of the study's first n whole days, extended by the days
// passed since as fresh ⊕ memo ⊕ day roll-ups. A study memo of one
// non-empty day is that day's roll-up; built from nothing it is the
// extension of its first day's roll-up. It is only ever a window's
// first operand, and a fold's first operand lands in a fresh
// accumulator, so the window's fold is still fresh ⊕ R(day 0) ⊕ … ⊕
// the day so far ⊕ the live hour, grouped as before: replies are
// bit-identical even where the feed breaks the MergeOrdered
// precondition (TestRollupRepliesDoNotDependOnHistory folds every
// window from the day memos as well). A sliding window's first day
// moves every day, so it keeps the day roll-ups.
//
// The operand list is a function of (window, live index, bucket
// width) alone: a day prefix, or the study's passed days, that
// qualifies is always taken as its memo — built or extended on the
// spot when it is not memoised, never bypassed — so a reply does not
// depend on which windows were asked before, on whether the daemon
// restarted, or on what the cache held. That matters only for feeds
// outside the MergeOrdered precondition, where groupings can differ by
// a session (see analysis/ordered.go); inside it every grouping is the
// single pass.
//
// A day is the one span a bucket memo covers, with no setting: a
// bucket width that does not divide 24 h, or is not below it, has no
// roll-ups, day or study, and folds bucket by bucket.
const rollupSpan = 24 * time.Hour

// dayState is what the store knows about one roll-up day, or, as
// Store.study, about the study's whole passed days.
type dayState struct {
	// gen counts the late records into the day — for the study memo,
	// into any day the live index has passed. A roll-up folded outside
	// the lock is installed only if gen did not move meanwhile.
	gen uint64
	// rollup is the day's first n buckets restored and left-folded —
	// for the study memo, the roll-ups of its first n days — carrying
	// the precondition witnesses of that fold; nil until a miss needs
	// it and after a late record. Nothing writes to it once installed:
	// an extension folds it into a new accumulator that takes its
	// place. It is derived state: never written to a cut.
	rollup *analysis.Streaming
	n      int
}

// studyMemo is the day of an operand that builds the study memo.
const studyMemo = -1

// operand is one term of a window fold: a bucket's encoding, a memoised
// roll-up, or a roll-up still to be folded from parts, captured at gen:
// a day's first n buckets — the day's shorter memo, if it has one, then
// the encodings of the buckets it lacks — or, with day = studyMemo, the
// study's first n days — the shorter study memo, if there is one, then
// the days it lacks, each a day operand.
type operand struct {
	enc    []byte
	rollup *analysis.Streaming
	day, n int
	gen    uint64
	parts  []operand
}

// invalidateDayLocked records a late record into bucket idx: whatever
// roll-up its day has, or is having built, no longer describes it, nor
// does the study memo if the day has passed. It counts one invalidation
// if it dropped a memo.
func (s *Store) invalidateDayLocked(idx int) {
	if s.perDay == 0 {
		return
	}
	day := idx / s.perDay
	d := s.dayLocked(day)
	d.gen++
	dropped := d.rollup != nil
	d.rollup = nil
	if day < s.live/s.perDay {
		s.study.gen++
		if s.study.rollup != nil && day < s.study.n {
			s.study.rollup = nil
			dropped = true
		}
	}
	if dropped {
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

// memoLocked returns the state of the memo an operand builds.
func (s *Store) memoLocked(day int) *dayState {
	if day == studyMemo {
		return &s.study
	}
	return s.dayLocked(day)
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
	idx := first
	if first == 0 && s.perDay > 0 && s.live >= s.perDay {
		// The study's whole passed days, as the first operand.
		k := s.live / s.perDay
		if op := s.studyOperandLocked(k); op.rollup != nil || op.parts != nil {
			ops = append(ops, op)
		}
		idx = k * s.perDay
	}
	for idx <= s.live {
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

// studyOperandLocked returns the study's first k whole days as one
// operand: the study memo if it covers them, or what to fold one from —
// the shorter study memo, if there is one, then the day operands of
// the days it lacks, memoised or not. A lone part is returned as it
// is, its fold into a fresh accumulator being a copy of it: a memoised
// one — the shorter memo followed by empty days, or the one non-empty
// day's roll-up — is installed as the memo at k, and a day still to
// build becomes it at the next listing. Days without buckets are
// skipped.
func (s *Store) studyOperandLocked(k int) operand {
	op := operand{day: studyMemo, n: k, gen: s.study.gen}
	from := 0
	if s.study.rollup != nil && s.study.n <= k {
		op.parts = []operand{{rollup: s.study.rollup}}
		from = s.study.n
	}
	for day := from; day < k; day++ {
		if d := s.dayOperandLocked(day, s.perDay); d.rollup != nil || d.parts != nil {
			op.parts = append(op.parts, d)
		}
	}
	if len(op.parts) == 1 {
		if op.parts[0].rollup != nil {
			s.study.rollup, s.study.n = op.parts[0].rollup, k
		}
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

// buildRollup folds one memo's operand into its roll-up, outside the
// store lock — a day prefix from scratch, or either memo as an
// extension of its shorter self by what was sealed since — and
// memoises it unless a late record reached its days meanwhile or a
// later miss memoised a longer one. Either way the result describes
// the instant the operand was listed, which is what the caller's fold
// needs. A study operand's days are built first, each as a day memo of
// its own, and a study memo built from nothing counts as its first
// day's roll-up extended by the rest.
func (s *Store) buildRollup(op operand) (*analysis.Streaming, error) {
	extend := op.day == studyMemo || op.parts[0].rollup != nil
	if err := s.buildRollups(op.parts); err != nil {
		return nil, err
	}
	s.buildMu.Lock()
	defer s.buildMu.Unlock()
	s.mu.Lock()
	if d := s.memoLocked(op.day); d.gen == op.gen && d.rollup != nil && d.n == op.n {
		// A miss ahead of us on buildMu built or extended it.
		rollup := d.rollup
		s.mu.Unlock()
		return rollup, nil
	}
	s.mu.Unlock()

	folded := len(op.parts)
	if extend {
		folded--
	}
	t0 := time.Now()
	rollup, err := s.fold(op.parts)
	if err != nil {
		if op.day == studyMemo {
			return nil, fmt.Errorf("query: roll up the study's first %d days: %w", op.n, err)
		}
		return nil, fmt.Errorf("query: roll up day %d: %w", op.day, err)
	}
	s.trace.Emit("rollup:"+strconv.Itoa(folded), time.Since(t0), rollup.Watermark())

	s.mu.Lock()
	defer s.mu.Unlock()
	if extend {
		s.rollupExtends++
		s.met.rollupExtends.Inc()
	} else {
		s.rollupBuilds++
		s.met.rollupBuilds.Inc()
	}
	switch d := s.memoLocked(op.day); {
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
