package query

import (
	"bytes"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"cellcars/internal/analysis"
	"cellcars/internal/cdr"
	"cellcars/internal/radio"
	"cellcars/internal/snapshot"
)

// refStore is what the store was before sealing and roll-ups: one
// accumulator per bucket, never dropped, and a window folded bucket by
// bucket. The sealed store must answer exactly as it does.
type refStore struct {
	s       *Store // for the configuration and bucket routing only
	buckets map[int]*analysis.Streaming
	live    int
}

func newRefStore(s *Store) *refStore {
	return &refStore{s: s, buckets: map[int]*analysis.Streaming{}, live: -1}
}

func (r *refStore) add(rec cdr.Record) {
	idx := r.s.bucketIndex(rec.Start)
	if r.buckets[idx] == nil {
		r.buckets[idx] = analysis.NewStreamingWithOptions(r.s.ctx, r.s.opts)
	}
	r.buckets[idx].Add(rec)
	r.live = max(r.live, idx)
}

func (r *refStore) report(t *testing.T, w Window) []byte {
	t.Helper()
	acc := analysis.NewStreamingWithOptions(r.s.ctx, r.s.opts)
	for idx := max(0, r.live-int(w.Span/r.s.width)+1); idx <= r.live; idx++ {
		b := r.buckets[idx]
		if b == nil {
			continue
		}
		var buf bytes.Buffer
		if err := b.SnapshotTo(&buf); err != nil {
			t.Fatal(err)
		}
		restored, err := analysis.RestoreStreaming(r.s.ctx, r.s.opts, &buf)
		if err != nil {
			t.Fatal(err)
		}
		if err := acc.MergeOrdered(restored); err != nil {
			t.Fatal(err)
		}
	}
	rep := acc.Finalize()
	body, err := MarshalReport(&rep)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// windowReport folds one window and returns the full report value, the
// uncached value /report/full renders.
func windowReport(s *Store, windowName string) (*analysis.StreamReport, error) {
	w, ok := s.window(windowName)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownWindow, windowName)
	}
	rep, _, err := s.compose("full", w)
	return rep, err
}

// epochOf returns s's live (highest fed) bucket index, -1 when cold.
func epochOf(s *Store) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.live
}

// served is the store's uncached answer, rendered as /report/full.
func served(t *testing.T, s *Store, w Window) []byte {
	t.Helper()
	rep, err := windowReport(s, w.Name)
	if err != nil {
		t.Fatal(err)
	}
	body, err := MarshalReport(rep)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func compareWindows(t *testing.T, s *Store, ref *refStore, when string) {
	t.Helper()
	for _, w := range s.Windows() {
		if got, want := served(t, s, w), ref.report(t, w); !bytes.Equal(got, want) {
			t.Fatalf("%s: window %s differs from the never-sealed reference (%d vs %d bytes)", when, w.Name, len(got), len(want))
		}
	}
}

// lateRecord is a record of a car the workload does not have, so
// delivering it out of order breaks no per-car ordering.
func lateRecord(at time.Duration) cdr.Record {
	return cdr.Record{Car: 9999, Cell: radio.MakeCellKey(5, 1, radio.C2), Start: qt0.Add(at), Duration: 40 * time.Second}
}

// TestSealedStoreMatchesReference walks the store through a feed: at
// every epoch every window — day-aligned or not, on a bucket width
// with roll-ups and on one without — answers as the reference does,
// while passed buckets seal and passed days roll up; a late record
// into a sealed bucket of a rolled-up day changes the answer as it
// changes the reference's; and a cut restores to the same answers with
// the roll-ups rebuilt.
func TestSealedStoreMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name    string
		days    int
		bucket  time.Duration
		windows []Window
		rollups bool
	}{
		{"hourly", 3, time.Hour, []Window{{"24h", 24 * time.Hour}, {"36h", 36 * time.Hour}, {"60h", 60 * time.Hour}, {"3d", 72 * time.Hour}}, true},
		{"5h buckets", 5, 5 * time.Hour, []Window{{"10h", 10 * time.Hour}, {"50h", 50 * time.Hour}, {"5d", 120 * time.Hour}}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := &snapshot.Dir{Path: filepath.Join(t.TempDir(), "cuts"), Keep: 2}
			cfg := Config{Ctx: queryCtx(tc.days), Bucket: tc.bucket, Windows: tc.windows, Snapshots: dir}
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefStore(s)
			records := queryWorkload(1500, tc.days)
			epochs := 0
			for i, rec := range records {
				s.Add(rec)
				ref.add(rec)
				if i+1 < len(records) && s.bucketIndex(records[i+1].Start) <= ref.live {
					continue
				}
				// The epoch's last record is in: ask.
				epochs++
				compareWindows(t, s, ref, "epoch "+time.Duration(ref.live).String())
				if epochs%9 == 0 {
					if _, err := s.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				}
			}
			if epochs < 20 {
				t.Fatalf("degenerate workload: %d epochs", epochs)
			}
			st := s.SnapshotStats()
			if st.LiveBuckets < 1 || st.LiveBuckets > st.Buckets/2 || st.SealedBytes == 0 {
				t.Fatalf("after the feed %d of %d buckets are live, %d sealed bytes; passed buckets should be sealed",
					st.LiveBuckets, st.Buckets, st.SealedBytes)
			}
			if got := st.Rollups > 0; got != tc.rollups {
				t.Fatalf("%d roll-ups memoised on a %v bucket, want some: %v", st.Rollups, tc.bucket, tc.rollups)
			}
			if st.Thaws != 0 || st.RollupInvalidations != 0 {
				t.Fatalf("in-order feed thawed %d buckets and invalidated %d roll-ups", st.Thaws, st.RollupInvalidations)
			}
			for name, n := range st.FoldOverlaps {
				if n != 0 {
					t.Fatalf("window %s: %d overlap witnesses on a conforming feed", name, n)
				}
			}

			// A late record into a sealed bucket of the first (rolled-up) day.
			before := served(t, s, tc.windows[len(tc.windows)-1])
			late := lateRecord(7 * time.Hour)
			s.Add(late)
			ref.add(late)
			compareWindows(t, s, ref, "after a late record")
			if bytes.Equal(before, served(t, s, tc.windows[len(tc.windows)-1])) {
				t.Fatal("late record left the full window's answer unchanged")
			}
			after := s.SnapshotStats()
			if after.Thaws != 1 {
				t.Fatalf("late record into a sealed bucket: %d thaws, want 1", after.Thaws)
			}
			if tc.rollups && (after.RollupInvalidations != 1 || after.RollupBuilds != st.RollupBuilds+1 || after.Rollups != st.Rollups) {
				t.Fatalf("late record into a rolled-up day: %d invalidations, %d→%d builds, %d→%d roll-ups; want one drop and one rebuild",
					after.RollupInvalidations, st.RollupBuilds, after.RollupBuilds, st.Rollups, after.Rollups)
			}

			// Checkpoint → Restore: same answers, roll-ups rebuilt on demand.
			if _, err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			restored, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if wm, ok, err := restored.Restore(); err != nil || !ok || wm != int64(len(records)+1) {
				t.Fatalf("restore: watermark %d ok=%v err=%v", wm, ok, err)
			}
			if rst := restored.SnapshotStats(); rst.LiveBuckets != 1 || rst.Rollups != 0 || rst.SealedBytes == 0 {
				t.Fatalf("restored store: %d live buckets, %d roll-ups, %d sealed bytes; want the live bucket alone and no roll-ups",
					rst.LiveBuckets, rst.Rollups, rst.SealedBytes)
			}
			compareWindows(t, restored, ref, "after restore")
			if rst := restored.SnapshotStats(); rst.Rollups != after.Rollups {
				t.Fatalf("restored store rebuilt %d roll-ups, the original held %d", rst.Rollups, after.Rollups)
			}
		})
	}
}

// TestSealedStoreConcurrentAddAndReport is the -race half: in-order
// and late Adds and cuts — Checkpoint and CheckpointBehind in turn,
// whose encodes run on every core — race wide-window misses, which
// encode too, and roll-up builds race the invalidations; the store
// still ends where the reference does.
func TestSealedStoreConcurrentAddAndReport(t *testing.T) {
	dir := &snapshot.Dir{Path: filepath.Join(t.TempDir(), "cuts"), Keep: 2}
	s, err := New(Config{Ctx: queryCtx(4), Snapshots: dir,
		Windows: []Window{{"36h", 36 * time.Hour}, {"3d", 72 * time.Hour}, {"4d", 96 * time.Hour}}})
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefStore(s)
	records := queryWorkload(3000, 4)

	done := make(chan struct{})
	var readers sync.WaitGroup
	for _, w := range s.Windows() {
		readers.Add(1)
		go func(w Window) {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if _, err := s.Report("summary", w.Name); err != nil {
					t.Error(err)
					return
				}
				if _, err := windowReport(s, w.Name); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for i, rec := range records {
		s.Add(rec)
		ref.add(rec)
		if i%97 == 96 && ref.live > 30 {
			// Late, into whatever day the readers have just rolled up.
			late := lateRecord(time.Duration(i%(ref.live-1)) * time.Hour)
			s.Add(late)
			ref.add(late)
		}
		switch i % 1400 {
		case 699:
			if err := s.CheckpointBehind(); err != nil {
				t.Fatal(err)
			}
		case 1399:
			if _, err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// One more miss on the widest window while the readers still run,
	// so the feed's last late record cannot leave no roll-up to check
	// however few misses the scheduler gave the readers.
	if _, err := windowReport(s, s.Windows()[len(s.Windows())-1].Name); err != nil {
		t.Fatal(err)
	}
	close(done)
	readers.Wait()
	// The readers folded the memoised roll-ups concurrently, and a
	// merge only reads its operand: each roll-up still encodes as a
	// fold of the hours it covers — unchanged since the build, or the
	// roll-up would have been dropped — encodes, with its witnesses.
	if checkMemosFoldFromScratch(t, s, "after the concurrent feed") == 0 {
		t.Fatal("no roll-up memoised after the concurrent feed")
	}
	compareWindows(t, s, ref, "after the concurrent feed")
	// Cuts seal and late records thaw whatever the schedule; how many
	// roll-ups a late record caught is the scheduler's.
	if st := s.SnapshotStats(); st.Thaws == 0 || st.RollupBuilds == 0 {
		t.Fatalf("the feed never thawed or rolled up: %d thaws, %d roll-up builds", st.Thaws, st.RollupBuilds)
	}
}

// encodedFold is the window fold as it was when a roll-up was kept as
// its SnapshotTo bytes: the operands the store lists for w — a memoised
// roll-up encoded, a bucket as its bytes — each restored and
// left-folded, the first restored operand being the accumulator, with
// the witnesses each roll-up carries added to the fold's own.
func encodedFold(t *testing.T, s *Store, w Window) ([]byte, int64) {
	t.Helper()
	ops, _, err := s.windowOperands(w)
	if err != nil {
		t.Fatal(err)
	}
	var acc *analysis.Streaming
	var overlaps int64
	for _, op := range ops {
		enc := op.enc
		switch {
		case op.parts != nil:
			t.Fatal("a day the window's fold covered has no memoised roll-up")
		case op.rollup != nil:
			var buf bytes.Buffer
			if err := op.rollup.SnapshotTo(&buf); err != nil {
				t.Fatal(err)
			}
			enc = buf.Bytes()
			overlaps += op.rollup.OrderedOverlaps()
		}
		restored, err := analysis.RestoreStreaming(s.ctx, s.opts, bytes.NewBuffer(enc))
		if err != nil {
			t.Fatal(err)
		}
		if acc == nil {
			acc = restored
		} else if err := acc.MergeOrdered(restored); err != nil {
			t.Fatal(err)
		}
	}
	if acc == nil {
		acc = analysis.NewStreamingWithOptions(s.ctx, s.opts)
	}
	overlaps += acc.OrderedOverlaps()
	rep := acc.Finalize()
	body, err := MarshalReport(&rep)
	if err != nil {
		t.Fatal(err)
	}
	return body, overlaps
}

// TestRollupFoldsLikeItsEncoding pins the memoised roll-up against the
// bytes it replaced: on a feed outside the MergeOrdered precondition —
// every fifth record outlives its car's next ones, and late records
// reach rolled-up days — every window at every epoch answers, and counts
// fold_overlaps, as the fold that restored each roll-up from its
// SnapshotTo bytes did.
func TestRollupFoldsLikeItsEncoding(t *testing.T) {
	windows := []Window{{"24h", 24 * time.Hour}, {"36h", 36 * time.Hour}, {"4d", 96 * time.Hour}}
	s, err := New(Config{Ctx: queryCtx(4), Windows: windows})
	if err != nil {
		t.Fatal(err)
	}
	records := queryWorkload(1500, 4)
	for i := range records {
		if i%5 == 0 {
			records[i].Duration = 3 * time.Hour
		}
	}
	var witnesses int64
	for i, rec := range records {
		s.Add(rec)
		if live := epochOf(s); i%211 == 210 && live > 30 {
			s.Add(lateRecord(time.Duration(i%(live-1)) * time.Hour))
		}
		if i+1 < len(records) && s.bucketIndex(records[i+1].Start) <= epochOf(s) {
			continue
		}
		for _, w := range windows {
			got := served(t, s, w)
			want, overlaps := encodedFold(t, s, w)
			if !bytes.Equal(got, want) {
				t.Fatalf("epoch %d, window %s: the memoised fold differs from the encoded one", epochOf(s), w.Name)
			}
			if n := s.SnapshotStats().FoldOverlaps[w.Name]; n != overlaps {
				t.Fatalf("epoch %d, window %s: %d fold overlaps, the encoded fold counts %d", epochOf(s), w.Name, n, overlaps)
			}
			witnesses += overlaps
		}
	}
	if st := s.SnapshotStats(); witnesses == 0 || st.Rollups == 0 || st.RollupInvalidations == 0 {
		t.Fatalf("degenerate feed: %d witnesses, %d roll-ups, %d invalidations", witnesses, st.Rollups, st.RollupInvalidations)
	}

	// Concurrent misses fold the same roll-ups, with no store lock
	// between them to order their accesses for the race detector.
	w := windows[len(windows)-1]
	want := served(t, s, w)
	ops, _, err := s.windowOperands(w)
	if err != nil {
		t.Fatal(err)
	}
	var folds sync.WaitGroup
	for range 4 {
		folds.Add(1)
		go func() {
			defer folds.Done()
			acc, err := s.fold(ops)
			if err != nil {
				t.Error(err)
				return
			}
			rep := acc.Finalize()
			if got, err := MarshalReport(&rep); err != nil || !bytes.Equal(got, want) {
				t.Errorf("a concurrent fold of the memoised roll-ups differs from the served window (%v)", err)
			}
		}()
	}
	folds.Wait()
}
