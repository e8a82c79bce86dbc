// Ordered (time-sliced) merging. The plain Merge contract assumes
// car-disjoint shards: each side closes its open sessions because "the
// other shard never sees this car again". Time slicing breaks that —
// the same car's stream continues in the next slice, and a session
// spanning the slice boundary would be counted twice (once per half)
// by the session stages (handovers, usage).
//
// MergeOrdered repairs the boundary. A slice built with
// RunOptions.TrackHeads stashes each car's *first* closed session
// unaccounted (its head) and keeps its last session open in the
// sessionizer (its tail). Folding slice k+1 into the accumulation of
// slices 0..k stitches, per car, the earlier open tail with the later
// head (or open fragment) under the ordinary gap rule, so every
// session is rebuilt exactly as a single pass over the concatenated
// stream would have built it.
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
// reordered: stitchOrdered counts each such join as a witness, and
// Streaming.OrderedOverlaps reports the total so a server can say when
// its fold was outside the exact regime. All non-session stages are
// order-insensitive and merge exactly with their plain Merge under any
// time split.
package analysis

import (
	"fmt"
	"slices"

	"cellcars/internal/cdr"
	"cellcars/internal/clean"
)

// orderedMerger is implemented by accumulators whose plain Merge is
// inexact under time-sliced (car-overlapping) folds and that therefore
// provide a boundary-stitching variant.
type orderedMerger interface {
	Accumulator
	// MergeOrdered folds a later, time-adjacent slice into the
	// receiver. The later slice must have been built with TrackHeads.
	MergeOrdered(other Accumulator)
	// tracksHeads reports whether the accumulator stashes head sessions,
	// which a later slice must for MergeOrdered to stitch it.
	tracksHeads() bool
	// orderedOverlaps counts the precondition witnesses this
	// accumulator's ordered merges have seen; see stitchOrdered.
	orderedOverlaps() int64
}

// stitchOrdered folds a later slice's session fragments into the
// receiver's sessionizer: per car (ascending, for determinism), the
// later head joins or closes the earlier open tail and is then closed
// itself; the later open tail joins or replaces it and stays open.
// closeFn receives every session the stitch proves closed. The return
// value counts the witnesses that the exactness precondition does not
// hold: later fragments starting before the earlier open tail's end.
func stitchOrdered(z *clean.Sessionizer, closeFn func(*clean.Session), heads map[cdr.CarID]*clean.Session, later *clean.Sessionizer) (overlaps int64) {
	// join applies the sessionizer's gap rule at the boundary: a
	// fragment starting within gap of the earlier open tail's end
	// continues that session; otherwise the tail is closed and the
	// fragment becomes the car's open session.
	join := func(frag *clean.Session) {
		cur := z.Open(frag.Car)
		if cur != nil && frag.Start < cur.End {
			overlaps++
		}
		if cur != nil && z.Splits(cur.End, frag.Start) {
			z.Take(frag.Car)
			closeFn(cur)
			cur = nil
		}
		if cur == nil {
			z.Put(frag)
			return
		}
		cur.Spans = append(cur.Spans, frag.Spans...)
		cur.Connected += frag.Connected
		cur.End = max(cur.End, frag.End)
	}
	cars := sortedKeys(heads)
	cars = append(cars, later.OpenCars()...)
	slices.Sort(cars)
	cars = slices.Compact(cars)
	for _, car := range cars {
		if h, ok := heads[car]; ok {
			// The head was closed by real gap evidence inside the later
			// slice, so whatever it stitched onto is complete.
			join(h)
			closeFn(z.Take(car))
		}
		if tail := later.Take(car); tail != nil {
			join(tail) // stays open: the next slice may continue it
		}
	}
	return overlaps
}

// MergeOrdered folds a later, time-adjacent slice into s, stitching
// sessions that span the slice boundary — the composition step behind
// rolling-window queries. later must cover records at or after every
// record s has seen (per car), must share s's study configuration, and
// must have been built with RunOptions.TrackHeads. later is consumed.
//
// Unlike the car-disjoint Merge, a left-fold of MergeOrdered over
// consecutive time slices finalizes bit-identically to one pass over
// the concatenated stream (see package comment for the precondition).
func (s *Streaming) MergeOrdered(later *Streaming) error {
	if err := s.header().SameStudy(later.header()); err != nil {
		return err
	}
	if !later.tracksHeads() {
		return fmt.Errorf("analysis: MergeOrdered needs the later slice built with TrackHeads")
	}
	s.set.merge(later.set, true)
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
