package analysis

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"cellcars/internal/cdr"
	"cellcars/internal/radio"
	"cellcars/internal/simtime"
)

// TestResumeAtSliceBoundary is the sharpest resume-at-boundary case:
// the earlier slice is checkpointed with a session whose End lands
// EXACTLY on the slice edge, and the later slice's first record starts
// EXACTLY on that edge (gap zero). The snapshot → RestoreStreaming →
// MergeOrdered path must stitch them into one session, matching the
// uninterrupted run bit for bit.
func TestResumeAtSliceBoundary(t *testing.T) {
	t0 := time.Date(2017, 3, 6, 0, 0, 0, 0, time.UTC)
	ctx := Context{Period: simtime.NewPeriod(t0, 2), TZOffsetSeconds: -5 * 3600}
	edge := t0.Add(24 * time.Hour)
	cellA := radio.MakeCellKey(1, 0, radio.C1)
	cellB := radio.MakeCellKey(2, 1, radio.C2)
	before := []cdr.Record{
		// Ends exactly at the edge: still open in the sessionizer when
		// the slice is cut (no gap evidence yet).
		{Car: 7, Cell: cellA, Start: edge.Add(-90 * time.Second), Duration: 90 * time.Second},
	}
	after := []cdr.Record{
		// Starts exactly at the edge: zero gap, must join the earlier
		// tail, not open a second session.
		{Car: 7, Cell: cellB, Start: edge, Duration: 60 * time.Second},
		// Real gap evidence later, so the stitched session closes.
		{Car: 7, Cell: cellA, Start: edge.Add(2 * time.Hour), Duration: 30 * time.Second},
	}

	tracked := RunOptions{TrackHeads: true}
	s1 := NewStreamingWithOptions(ctx, tracked)
	for _, r := range before {
		s1.Add(r)
	}
	var snap bytes.Buffer
	if err := s1.SnapshotTo(&snap); err != nil {
		t.Fatal(err)
	}
	s1r, err := RestoreStreaming(ctx, tracked, &snap)
	if err != nil {
		t.Fatal(err)
	}
	if s1r.Watermark() != int64(len(before)) {
		t.Fatalf("restored watermark %d, want %d", s1r.Watermark(), len(before))
	}

	s2 := NewStreamingWithOptions(ctx, tracked)
	for _, r := range after {
		s2.Add(r)
	}
	if err := s1r.MergeOrdered(s2); err != nil {
		t.Fatal(err)
	}
	got := s1r.Finalize()

	whole := NewStreamingWithOptions(ctx, RunOptions{})
	for _, r := range append(append([]cdr.Record(nil), before...), after...) {
		whole.Add(r)
	}
	want := whole.Finalize()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed-at-boundary report differs from uninterrupted run\ngot  %+v\nwant %+v", got, want)
	}
	// The zero-gap join is what makes this case sharp: one mobility
	// session crossing the edge with a single A→B handover (the later
	// A record is a separate session past the 10-minute gap).
	if got.Handovers.Sessions != 2 {
		t.Fatalf("mobility sessions = %d, want 2", got.Handovers.Sessions)
	}
	var total int64
	for _, n := range got.Handovers.ByKind {
		total += n
	}
	if total != 1 {
		t.Fatalf("handovers = %d, want 1 (the boundary-crossing A→B)", total)
	}
}
