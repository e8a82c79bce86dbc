package query

import (
	"bytes"
	"testing"
	"time"

	"cellcars/internal/analysis"
	"cellcars/internal/cdr"
	"cellcars/internal/radio"
	"cellcars/internal/snapshot"
)

// TestBucketEdgeRouting pins the half-open bucket intervals: a record
// starting exactly on a bucket edge belongs to the NEW bucket (and
// advances the epoch), while one a nanosecond earlier stays in the old
// one. Out-of-period starts clamp to the edge buckets.
func TestBucketEdgeRouting(t *testing.T) {
	s, err := New(Config{Ctx: queryCtx(2)})
	if err != nil {
		t.Fatal(err)
	}
	cell := radio.MakeCellKey(1, 0, radio.C1)

	if idx := s.bucketIndex(qt0); idx != 0 {
		t.Fatalf("period start → bucket %d, want 0", idx)
	}
	if idx := s.bucketIndex(qt0.Add(time.Hour - time.Nanosecond)); idx != 0 {
		t.Fatalf("edge-1ns → bucket %d, want 0", idx)
	}
	if idx := s.bucketIndex(qt0.Add(time.Hour)); idx != 1 {
		t.Fatalf("exact edge → bucket %d, want 1", idx)
	}
	// Clamps: before the period and at/after its end (the end itself
	// is outside the half-open study window).
	if idx := s.bucketIndex(qt0.Add(-time.Minute)); idx != 0 {
		t.Fatalf("pre-period → bucket %d, want 0", idx)
	}
	if idx := s.bucketIndex(qt0.Add(48 * time.Hour)); idx != 47 {
		t.Fatalf("period end → bucket %d, want 47 (clamped)", idx)
	}

	s.Add(cdr.Record{Car: 1, Cell: cell, Start: qt0.Add(time.Hour - time.Second), Duration: time.Second})
	if got := epochOf(s); got != 0 {
		t.Fatalf("epoch after last in-bucket record = %d, want 0", got)
	}
	s.Add(cdr.Record{Car: 1, Cell: cell, Start: qt0.Add(time.Hour), Duration: time.Second})
	if got := epochOf(s); got != 1 {
		t.Fatalf("epoch after exact-edge record = %d, want 1", got)
	}
}

// TestRestoreAtBucketEdgeWatermark is the resume-at-boundary case for
// the query store: the checkpoint watermark lands exactly on a bucket
// (and 24h-window) edge — every record of buckets 0..23 is covered,
// none of bucket 24 — and a warm restart plus tail replay must still
// produce the batch bytes. The first replayed record opens a brand-new
// bucket on the restored store.
func TestRestoreAtBucketEdgeWatermark(t *testing.T) {
	ctx := queryCtx(2)
	records := queryWorkload(6000, 2)
	edge := qt0.Add(24 * time.Hour)
	cut := len(records)
	for i, r := range records {
		if !r.Start.Before(edge) {
			cut = i
			break
		}
	}
	if cut == 0 || cut == len(records) {
		t.Fatalf("degenerate workload: cut %d of %d", cut, len(records))
	}

	dir := &snapshot.Dir{Path: t.TempDir() + "/cuts", Keep: 2}
	cfg := Config{Ctx: ctx, Windows: []Window{{Name: "48h", Span: 48 * time.Hour}}, Snapshots: dir}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feed(t, s, records[:cut])
	if got, want := epochOf(s), 23; got != want {
		t.Fatalf("epoch at the edge = %d, want %d (bucket 24 must not exist yet)", got, want)
	}
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	restored, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wm, ok, err := restored.Restore()
	if err != nil || !ok {
		t.Fatalf("restore: ok=%v err=%v", ok, err)
	}
	if wm != int64(cut) {
		t.Fatalf("restored watermark %d, want %d", wm, cut)
	}
	if got := epochOf(restored); got != 23 {
		t.Fatalf("restored epoch %d, want 23", got)
	}
	feed(t, restored, records[cut:])
	if got := epochOf(restored); got <= 23 {
		t.Fatalf("epoch after tail replay = %d, want > 23", got)
	}

	batch := analysis.NewStreamingWithOptions(ctx, analysis.RunOptions{})
	if err := batch.AddAll(cdr.NewSliceReader(records)); err != nil {
		t.Fatal(err)
	}
	rep := batch.Finalize()
	want, err := MarshalReport(&rep)
	if err != nil {
		t.Fatal(err)
	}
	got, err := restored.Report("full", "48h")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("report after edge-watermark restore differs from batch (%d vs %d bytes)", len(got), len(want))
	}
}
