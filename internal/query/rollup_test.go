package query

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"cellcars/internal/analysis"
	"cellcars/internal/cdr"
	"cellcars/internal/obs"
	"cellcars/internal/snapshot"
)

// ticks splits a start-ordered feed into the runs of records that end
// at each advance of the live bucket: ends[i] is one past the last
// record of tick i.
func ticks(s *Store, records []cdr.Record) (ends []int) {
	for i := range records {
		if i+1 == len(records) || s.bucketIndex(records[i+1].Start) > s.bucketIndex(records[i].Start) {
			ends = append(ends, i+1)
		}
	}
	return ends
}

// reply is one window's answer: the /report/full bytes and the fold's
// overlap witnesses.
type reply struct {
	body     []byte
	overlaps int64
}

func replyOf(t *testing.T, s *Store, w Window) reply {
	t.Helper()
	body := served(t, s, w)
	return reply{body, s.SnapshotStats().FoldOverlaps[w.Name]}
}

// checkMemosFoldFromScratch holds every memo of s to the left fold of
// what it covers built from nothing — a day memo to its clean buckets'
// encodings, the study memo to the memos of its days — with the same
// SnapshotTo bytes and the same overlap witnesses, and returns how many
// memos it checked.
func checkMemosFoldFromScratch(t *testing.T, s *Store, when string) int {
	t.Helper()
	s.mu.Lock()
	memos := map[int]operand{}
	for day, d := range s.days {
		if d.rollup == nil {
			continue
		}
		op := operand{rollup: d.rollup, n: d.n}
		for idx := day * s.perDay; idx < day*s.perDay+d.n; idx++ {
			if b := s.buckets[idx]; b != nil {
				if b.dirty {
					s.mu.Unlock()
					t.Fatalf("%s: bucket %d of memoised day %d is dirty", when, idx, day)
				}
				op.parts = append(op.parts, operand{enc: b.encoded})
			}
		}
		memos[day] = op
	}
	if s.study.rollup != nil {
		op := operand{rollup: s.study.rollup, n: s.study.n}
		for day := range s.study.n {
			if d := s.days[day]; d != nil && d.rollup != nil && d.n == s.perDay {
				op.parts = append(op.parts, operand{rollup: d.rollup})
			} else if hasBucketsLocked(s, day, s.perDay) {
				s.mu.Unlock()
				t.Fatalf("%s: day %d of the study memo's %d has no whole-day memo", when, day, s.study.n)
			}
		}
		memos[studyMemo] = op
	}
	s.mu.Unlock()
	for day, op := range memos {
		scratch, err := s.fold(op.parts)
		if err != nil {
			t.Fatal(err)
		}
		var got, want bytes.Buffer
		if err := op.rollup.SnapshotTo(&got); err != nil {
			t.Fatal(err)
		}
		if err := scratch.SnapshotTo(&want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) || op.rollup.OrderedOverlaps() != scratch.OrderedOverlaps() {
			what := fmt.Sprintf("the memo of day %d's first %d buckets differs from their fold", day, op.n)
			if day == studyMemo {
				what = fmt.Sprintf("the study memo of %d days differs from the fold of their day memos", op.n)
			}
			t.Fatalf("%s: %s from scratch (%d vs %d witnesses)", when, what, op.rollup.OrderedOverlaps(), scratch.OrderedOverlaps())
		}
	}
	return len(memos)
}

// hasBucketsLocked reports whether any of day's first n buckets holds
// records; the caller holds s.mu.
func hasBucketsLocked(s *Store, day, n int) bool {
	for idx := day * s.perDay; idx < day*s.perDay+n; idx++ {
		if s.buckets[idx] != nil {
			return true
		}
	}
	return false
}

// dayFold is a window's reply as the store folded it before the study
// memo: its ragged first day's hours, the store's own memo of every
// day it covers from the day's start — every whole passed day and the
// day so far — and the live hour, left-folded into a fresh accumulator
// and finalized, with the fold's overlap witnesses. It is asked right
// after a miss of the window, which leaves every such day memoised and
// every bucket clean.
func dayFold(t *testing.T, s *Store, w Window) reply {
	t.Helper()
	s.mu.Lock()
	var ops []operand
	for idx := max(0, s.live-int(w.Span/s.width)+1); idx <= s.live; {
		if idx%s.perDay == 0 && idx < s.live {
			n := min(s.perDay, s.live-idx)
			if d := s.days[idx/s.perDay]; d != nil && d.rollup != nil && d.n == n {
				ops = append(ops, operand{rollup: d.rollup})
			} else if hasBucketsLocked(s, idx/s.perDay, n) {
				s.mu.Unlock()
				t.Fatalf("window %s: day %d has no memo of its first %d buckets", w.Name, idx/s.perDay, n)
			}
			idx += n
			continue
		}
		if b := s.buckets[idx]; b != nil {
			ops = append(ops, operand{enc: b.encoded})
		}
		idx++
	}
	s.mu.Unlock()
	acc, err := s.fold(ops)
	if err != nil {
		t.Fatal(err)
	}
	rep := acc.Finalize()
	body, err := MarshalReport(&rep)
	if err != nil {
		t.Fatal(err)
	}
	return reply{body, acc.OrderedOverlaps()}
}

// TestRollupRepliesDoNotDependOnHistory feeds a store hour by hour, on
// a conforming feed and on one outside the MergeOrdered precondition,
// and at every tick holds every window's /report/full bytes and
// fold_overlaps to those of a store asked only at that tick and of a
// store restored from the previous tick's cut: a memo extended hour
// by hour is the memo a build from scratch makes. They are also held
// to the fold of the store's own day memos with no study memo
// (dayFold), which the full-study window 3d takes as its first
// operand. Each memo is held, encoding and witnesses, to its fold
// from scratch, and a day-aligned window restores no bucket but the
// live one.
func TestRollupRepliesDoNotDependOnHistory(t *testing.T) {
	const days = 3
	windows := []Window{{"5h", 5 * time.Hour}, {"24h", 24 * time.Hour}, {"36h", 36 * time.Hour}, {"3d", days * 24 * time.Hour}}
	for _, tc := range []struct {
		name    string
		overlap bool
	}{{"ordered", false}, {"overlapping", true}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := &snapshot.Dir{Path: filepath.Join(t.TempDir(), "cuts"), Keep: 2}
			cfg := Config{Ctx: queryCtx(days), Windows: windows, Snapshots: dir}
			every, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			records := queryWorkload(1200, days)
			if tc.overlap {
				for i := range records {
					if i%5 == 0 {
						records[i].Duration = 3 * time.Hour
					}
				}
			}
			ends := ticks(every, records)
			if len(ends) < 40 {
				t.Fatalf("degenerate workload: %d ticks", len(ends))
			}
			var witnesses int64
			prev := 0
			for tick, end := range ends {
				feed(t, every, records[prev:end])
				// Ask in an order that changes from tick to tick.
				got := map[string]reply{}
				for i := range windows {
					w := windows[(i+tick)%len(windows)]
					got[w.Name] = replyOf(t, every, w)
					if r := dayFold(t, every, w); !bytes.Equal(r.body, got[w.Name].body) || r.overlaps != got[w.Name].overlaps {
						t.Fatalf("tick %d, window %s: the reply differs from the fold of the store's day memos (%d vs %d witnesses)",
							tick, w.Name, got[w.Name].overlaps, r.overlaps)
					}
				}

				once, err := New(Config{Ctx: cfg.Ctx, Windows: windows})
				if err != nil {
					t.Fatal(err)
				}
				feed(t, once, records[:end])
				var restored *Store
				if tick > 0 {
					if restored, err = New(cfg); err != nil {
						t.Fatal(err)
					}
					wm, ok, err := restored.Restore()
					if err != nil || !ok || wm != int64(prev) {
						t.Fatalf("tick %d: restore: watermark %d ok=%v err=%v, want %d", tick, wm, ok, err, prev)
					}
					feed(t, restored, records[wm:end])
				}
				for _, w := range windows {
					want := got[w.Name]
					if r := replyOf(t, once, w); !bytes.Equal(r.body, want.body) || r.overlaps != want.overlaps {
						t.Fatalf("tick %d, window %s: a store asked every tick answers otherwise than one asked only now (%d vs %d witnesses)",
							tick, w.Name, want.overlaps, r.overlaps)
					}
					if restored == nil {
						continue
					}
					if r := replyOf(t, restored, w); !bytes.Equal(r.body, want.body) || r.overlaps != want.overlaps {
						t.Fatalf("tick %d, window %s: a store restored from the previous tick's cut answers otherwise (%d vs %d witnesses)",
							tick, w.Name, want.overlaps, r.overlaps)
					}
					witnesses += want.overlaps
				}
				checkMemosFoldFromScratch(t, every, fmt.Sprintf("tick %d", tick))

				ops, _, err := every.windowOperands(windows[len(windows)-1])
				if err != nil {
					t.Fatal(err)
				}
				for i, op := range ops {
					if op.rollup == nil && i != len(ops)-1 {
						t.Fatalf("tick %d: operand %d of %d of the day-aligned window is not a memoised roll-up", tick, i, len(ops))
					}
				}
				if _, err := every.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				prev = end
			}
			st := every.SnapshotStats()
			if st.RollupExtends < int64(len(ends))/2 || st.RollupBuilds != days {
				t.Fatalf("%d extensions and %d builds over %d ticks: each day's memo should be built once and extended after",
					st.RollupExtends, st.RollupBuilds, len(ends))
			}
			if (witnesses > 0) != tc.overlap {
				t.Fatalf("%d overlap witnesses over the feed; want some: %v", witnesses, tc.overlap)
			}
		})
	}
}

// TestRollupDroppedByLateRecordIntoToday: a late record into a passed
// hour of the current day drops the day-so-far memo, counted once in
// cellcars_query_rollup_invalidations_total, and the next miss — and
// the one after, which extends the rebuilt memo — answers as a fresh
// store fed the same records does.
func TestRollupDroppedByLateRecordIntoToday(t *testing.T) {
	windows := []Window{{"24h", 24 * time.Hour}, {"2d", 48 * time.Hour}}
	reg := obs.New()
	cfg := Config{Ctx: queryCtx(2), Windows: windows}
	s, err := New(Config{Ctx: cfg.Ctx, Windows: windows, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	records := queryWorkload(1500, 2)
	ends := ticks(s, records)
	var fed []cdr.Record
	matchesFresh := func(when string) {
		t.Helper()
		fresh, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		feed(t, fresh, fed)
		for _, w := range windows {
			if got, want := replyOf(t, s, w), replyOf(t, fresh, w); !bytes.Equal(got.body, want.body) || got.overlaps != want.overlaps {
				t.Fatalf("%s, window %s: the store answers otherwise than a fresh one fed the same records", when, w.Name)
			}
		}
	}
	today := func() *dayState {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.days[1]
	}

	// Hour by hour into the second day, asking every window each tick.
	prev, tick := 0, 0
	for ; epochOf(s) < 30; tick++ {
		feed(t, s, records[prev:ends[tick]])
		fed = append(fed, records[prev:ends[tick]]...)
		prev = ends[tick]
		for _, w := range windows {
			served(t, s, w)
		}
	}
	live := epochOf(s)
	if d := today(); d == nil || d.rollup == nil || d.n != live-24 {
		t.Fatalf("at live hour %d the day so far is not memoised over its %d passed hours", live, live-24)
	}
	invalid := reg.Counter("cellcars_query_rollup_invalidations_total")
	before, builds := invalid.Value(), s.SnapshotStats().RollupBuilds

	late := lateRecord(26*time.Hour + 10*time.Minute)
	s.Add(late)
	fed = append(fed, late)
	if d := today(); d.rollup != nil {
		t.Fatal("a late record into a passed hour of the day left the day-so-far memo in place")
	}
	if got := invalid.Value(); got != before+1 {
		t.Fatalf("late record: %d invalidations, want %d", got, before+1)
	}
	matchesFresh("after the late record")
	if st := s.SnapshotStats(); st.RollupBuilds != builds+1 || st.RollupInvalidations != int64(before+1) {
		t.Fatalf("after the late record: %d→%d builds, %d invalidations; want the day so far rebuilt once",
			builds, st.RollupBuilds, st.RollupInvalidations)
	}

	extends := s.SnapshotStats().RollupExtends
	feed(t, s, records[prev:ends[tick]])
	fed = append(fed, records[prev:ends[tick]]...)
	matchesFresh("a tick after the late record")
	if st := s.SnapshotStats(); st.RollupExtends != extends+1 || st.RollupBuilds != builds+1 {
		t.Fatalf("a tick after the late record: %d→%d extensions, %d builds; want the rebuilt memo extended",
			extends, st.RollupExtends, st.RollupBuilds)
	}
}

// TestStudyRollupDroppedByLateRecord: a late record into a passed day
// drops the study memo with the day's, counted once in
// cellcars_query_rollup_invalidations_total, and the next miss rebuilds
// both — the day's roll-up from its buckets, the study memo as its
// first day's roll-up extended by the other — answering as the fold of
// the day memos and as a fresh store fed the same records do. A late
// record into the day so far leaves the study memo in place, and the
// next day extends it. The feed breaks the MergeOrdered precondition,
// so a memo folded in another grouping would show.
func TestStudyRollupDroppedByLateRecord(t *testing.T) {
	const days = 4
	windows := []Window{{"24h", 24 * time.Hour}, {"4d", days * 24 * time.Hour}}
	reg := obs.New()
	cfg := Config{Ctx: queryCtx(days), Windows: windows}
	s, err := New(Config{Ctx: cfg.Ctx, Windows: windows, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	records := queryWorkload(2000, days)
	for i := range records {
		if i%5 == 0 {
			records[i].Duration = 3 * time.Hour
		}
	}
	ends := ticks(s, records)
	var fed []cdr.Record
	var witnesses int64
	matches := func(when string) {
		t.Helper()
		fresh, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		feed(t, fresh, fed)
		for _, w := range windows {
			got := replyOf(t, s, w)
			if r := dayFold(t, s, w); !bytes.Equal(r.body, got.body) || r.overlaps != got.overlaps {
				t.Fatalf("%s, window %s: the reply differs from the fold of the store's day memos (%d vs %d witnesses)",
					when, w.Name, got.overlaps, r.overlaps)
			}
			if r := replyOf(t, fresh, w); !bytes.Equal(r.body, got.body) || r.overlaps != got.overlaps {
				t.Fatalf("%s, window %s: the store answers otherwise than a fresh one fed the same records", when, w.Name)
			}
			witnesses += got.overlaps
		}
		checkMemosFoldFromScratch(t, s, when)
	}
	study := func() (*analysis.Streaming, int) {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.study.rollup, s.study.n
	}
	prev, tick := 0, 0
	feedTo := func(live int) {
		for ; epochOf(s) < live; tick++ {
			feed(t, s, records[prev:ends[tick]])
			fed = append(fed, records[prev:ends[tick]]...)
			prev = ends[tick]
			for _, w := range windows {
				served(t, s, w)
			}
		}
	}
	late := func(at time.Duration) {
		r := lateRecord(at)
		s.Add(r)
		fed = append(fed, r)
	}

	feedTo(60)
	if rollup, n := study(); rollup == nil || n != 2 {
		t.Fatalf("at live hour %d the study memo covers %d days, want 2", epochOf(s), n)
	}
	invalid := reg.Counter("cellcars_query_rollup_invalidations_total")
	before, st := invalid.Value(), s.SnapshotStats()
	late(7 * time.Hour)
	if rollup, _ := study(); rollup != nil {
		t.Fatal("a late record into the first day left the study memo in place")
	}
	if got := invalid.Value(); got != before+1 {
		t.Fatalf("a late record into a passed day: %d invalidations, want %d", got, before+1)
	}
	matches("after a late record into the first day")
	if after := s.SnapshotStats(); after.RollupBuilds != st.RollupBuilds+1 || after.RollupExtends != st.RollupExtends+1 {
		t.Fatalf("after a late record into the first day: %d→%d builds, %d→%d extensions; want the day rebuilt and the study memo extended from it",
			st.RollupBuilds, after.RollupBuilds, st.RollupExtends, after.RollupExtends)
	}

	kept, _ := study()
	late(50*time.Hour + 10*time.Minute)
	if rollup, _ := study(); rollup != kept {
		t.Fatal("a late record into the day so far dropped the study memo")
	}
	matches("after a late record into the day so far")

	st = s.SnapshotStats()
	feedTo(74)
	matches("in the fourth day")
	if rollup, n := study(); rollup == nil || n != 3 || s.SnapshotStats().RollupExtends <= st.RollupExtends {
		t.Fatalf("in the fourth day the study memo covers %d days, want 3, extended", n)
	}
	if witnesses == 0 {
		t.Fatal("degenerate feed: no overlap witnesses")
	}
}
