// Ordered (time-sliced) merging. The plain Merge contract assumes
// car-disjoint shards: each side closes its open sessions because "the
// other shard never sees this car again". Time slicing breaks that —
// the same car's stream continues in the next slice, and a session
// spanning the slice boundary would be counted twice (once per half)
// by the session stages (handovers, usage).
//
// MergeOrdered repairs the boundary. A slice built with
// RunOptions.TrackHeads stashes each car's *first* closed session
// unaccounted (its head) and keeps its last session open (its tail).
// Folding slice k+1 into the accumulation of slices 0..k stitches, per
// car, the earlier open tail with the later head (or open fragment)
// under the ordinary gap rule, so every session is rebuilt exactly as a
// single pass over the concatenated stream would have built it.
//
// Exactness precondition: the concatenated stream must satisfy the
// Sessionizer contract (per-car non-decreasing start order across the
// slice boundary), and each car's records must be non-overlapping in
// time so span ends are monotone. Under it the fold is also
// associative: any grouping of consecutive slices, each group taken
// through a snapshot, finalizes to the single pass's bytes
// (FuzzMergeOrderedGrouping).
//
// The precondition is a property of the feed, not of time
// partitioning. A record that outlives the next record's start — the
// synthetic fleet's stuck-modem teardowns (§3) do, for about half of
// its records — leaves an earlier slice's open tail ending *after* a
// later slice's fragment starts. The later slice, not knowing of that
// tail, has by then split sessions a single pass would have kept
// whole, so the fold differs from the single pass and different
// groupings can disagree by a session. Nothing is refused or
// reordered: sessionStage.join counts each such join as a witness, and
// Streaming.OrderedOverlaps reports the total so a server can say when
// its fold was outside the exact regime. All non-session stages are
// order-insensitive and merge exactly with their plain Merge under any
// time split.
package analysis

import "fmt"

// orderedMerger is implemented by accumulators whose plain Merge is
// inexact under time-sliced (car-overlapping) folds and that therefore
// provide a boundary-stitching variant.
type orderedMerger interface {
	Accumulator
	// MergeOrdered folds a later, time-adjacent slice into the
	// receiver, its car j being the receiver's car remap[j]. The later
	// slice must have been built with TrackHeads.
	MergeOrdered(other Accumulator, remap []int32)
	// tracksHeads reports whether the accumulator stashes head sessions,
	// which a later slice must for MergeOrdered to stitch it.
	tracksHeads() bool
	// orderedOverlaps counts the precondition witnesses this
	// accumulator's ordered merges have seen; see sessionStage.join.
	orderedOverlaps() int64
}

// mergeOrdered folds the unaccounted sessions of a later, time-adjacent
// slice, which must have been built with TrackHeads: only the boundary
// sessions need stitching, the later slice's aggregates are interior to
// it and fold as they are. Per car, the later head joins or closes the
// earlier open tail and is then closed itself; the later open tail
// joins or replaces it and stays open. Cars are independent and every
// head is joined before any tail, so the walks' order is free. What s
// keeps of o's sessions is cloned, so o stays as it was.
func (s *sessionStage[S]) mergeOrdered(o *sessionStage[S], remap []int32) {
	if !o.trackHeads {
		panic("analysis: MergeOrdered needs the later slice built with TrackHeads")
	}
	s.overlaps += o.overlaps
	o.heads.each(func(j int32, h S) {
		// The head was closed by real gap evidence inside the later
		// slice, so whatever it stitched onto is complete.
		car := remap[j]
		if sess, joined := s.join(car, h); joined {
			s.settle(car, sess)
		} else {
			s.settleFrom(car, sess)
		}
	})
	o.open.each(func(j int32, tail S) {
		car := remap[j]
		sess, joined := s.join(car, tail)
		if !joined {
			sess = sess.clone() // Add may extend or recycle an open session in place
		}
		s.open.put(car, sess) // stays open: the next slice may continue it
	})
}

// join applies the gap rule at the boundary and takes the car's open
// session out: a fragment starting within gap of the earlier open
// tail's end continues that session, which join returns with the
// fragment joined on; otherwise the tail is closed and join returns the
// fragment itself, in its owner's memory. A fragment starting before
// the tail's end is a witness that the exactness precondition does not
// hold, and is counted.
func (s *sessionStage[S]) join(car int32, frag S) (sess S, joined bool) {
	cur, ok := s.open.take(car)
	if !ok {
		return frag, false
	}
	start, _ := frag.bounds()
	_, end := cur.bounds()
	if start < end {
		s.overlaps++
	}
	if splits(s.gap, end, start) {
		s.settle(car, cur)
		return frag, false
	}
	return cur.extend(frag), true
}

// MergeOrdered folds a later, time-adjacent slice into s, stitching
// sessions that span the slice boundary — the composition step behind
// rolling-window queries. It is the one-operand case of
// MergeOrderedAll, which holds the contract.
func (s *Streaming) MergeOrdered(later *Streaming) error {
	return s.MergeOrderedAll([]*Streaming{later})
}

// MergeOrderedAll folds later, time-adjacent slices into s, oldest
// first. Each must cover records at or after every record s and the
// slices before it have seen (per car), must share s's study
// configuration, and must have been built with RunOptions.TrackHeads;
// a slice that does not is refused before anything is folded. The
// slices are left as they were: the merge flushes each one's buffered
// records into its own stages and otherwise only reads it, so a flushed
// slice may be folded into any number of accumulators, concurrently
// too. The stages fold on every core (accumSet.mergeAll), each
// exactly as successive MergeOrdered calls would.
//
// Unlike the car-disjoint Merge, a left-fold of MergeOrdered over
// consecutive time slices finalizes bit-identically to one pass over
// the concatenated stream (see package comment for the precondition).
func (s *Streaming) MergeOrderedAll(laters []*Streaming) error {
	sets := make([]*accumSet, len(laters))
	for i, later := range laters {
		if err := s.header().SameStudy(later.header()); err != nil {
			return err
		}
		if !later.tracksHeads() {
			return fmt.Errorf("analysis: MergeOrdered needs the later slice built with TrackHeads")
		}
		sets[i] = later.set
	}
	s.set.mergeAll(sets, true)
	return nil
}

// OrderedOverlaps counts the witnesses, summed over the session stages
// (handovers, usage), that the MergeOrdered calls folded into s fell
// outside the exactness precondition: boundary stitches where the
// later fragment started before the earlier open tail had ended. Zero
// means every stitch so far was one a single pass would have made. The
// count is transient — a snapshot does not carry it — so an owner that
// folds through snapshots adds the counts up itself.
func (s *Streaming) OrderedOverlaps() int64 {
	var n int64
	for _, acc := range s.set.stages {
		if om, ok := acc.(orderedMerger); ok {
			n += om.orderedOverlaps()
		}
	}
	return n
}

// tracksHeads reports whether the live session stages carry the
// head-stash state MergeOrdered stitches with. The flag is read from
// the accumulators, not the options: a restored slice's tracking state
// comes from its snapshot payload.
func (s *Streaming) tracksHeads() bool {
	for _, acc := range s.set.stages {
		if om, ok := acc.(orderedMerger); ok && !om.tracksHeads() {
			return false
		}
	}
	return true
}
