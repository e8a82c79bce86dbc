package analysis

import (
	"bytes"
	"encoding/json"
	"math/rand/v2"
	"reflect"
	"sort"
	"testing"
	"time"

	"cellcars/internal/cdr"
	"cellcars/internal/clean"
	"cellcars/internal/radio"
)

// orderedWorkload builds a time-sorted stream whose per-car records
// never overlap — the MergeOrdered exactness precondition (see
// ordered.go). Each car is a chain of records separated by gaps drawn
// to straddle every sessionization threshold, including the exact
// AggregateGap and MobilityGap boundaries; ghosts and out-of-period
// records ride along to exercise the ingest filters.
func orderedWorkload(n int) []cdr.Record {
	return orderedFleet(rand.New(rand.NewPCG(2024, 7)), n, 300)
}

// orderedFleet is orderedWorkload over a caller-seeded generator and
// fleet size.
func orderedFleet(rng *rand.Rand, n int, cars uint64) []cdr.Record {
	records := make([]cdr.Record, 0, n)
	next := make(map[cdr.CarID]time.Time)
	for len(records) < n {
		car := cdr.CarID(rng.Uint64N(cars))
		start, ok := next[car]
		if !ok {
			start = t0.Add(time.Duration(rng.Uint64N(24*3600)) * time.Second)
		}
		dur := time.Duration(5+rng.Uint64N(900)) * time.Second
		records = append(records, cdr.Record{
			Car:      car,
			Cell:     radio.MakeCellKey(radio.BSID(rng.Uint64N(60)), radio.SectorID(rng.Uint64N(3)), radio.C1+radio.CarrierID(rng.Uint64N(uint64(radio.NumCarriers)))),
			Start:    start,
			Duration: dur,
		})
		var gap time.Duration
		switch rng.Uint64N(6) {
		case 0: // within the aggregate gap: joins both session kinds
			gap = time.Duration(rng.Uint64N(30)) * time.Second
		case 1: // exactly AggregateGap: still joins (close needs > gap)
			gap = clean.AggregateGap
		case 2: // between the gaps: splits usage, joins mobility
			gap = time.Duration(35+rng.Uint64N(500)) * time.Second
		case 3: // exactly MobilityGap: still joins mobility
			gap = clean.MobilityGap
		case 4: // beyond both gaps: splits everything
			gap = clean.MobilityGap + time.Duration(1+rng.Uint64N(3600))*time.Second
		case 5: // a long silence, pushing some cars past the period
			gap = time.Duration(rng.Uint64N(3*24*3600)) * time.Second
		}
		next[car] = start.Add(dur + gap)
	}
	// Ghosts and pre-period records are filtered before any stage sees
	// them, so they need not respect the per-car chains.
	for i := 0; i < n/100; i++ {
		records = append(records, cdr.Record{
			Car:      cdr.CarID(rng.Uint64N(cars)),
			Cell:     radio.MakeCellKey(radio.BSID(rng.Uint64N(60)), 0, radio.C1),
			Start:    t0.Add(time.Duration(rng.Uint64N(14*24*3600)) * time.Second),
			Duration: clean.GhostDuration,
		})
		records = append(records, cdr.Record{
			Car:      cdr.CarID(rng.Uint64N(cars)),
			Cell:     radio.MakeCellKey(radio.BSID(rng.Uint64N(60)), 0, radio.C2),
			Start:    t0.Add(-time.Duration(1+rng.Uint64N(48*3600)) * time.Second),
			Duration: 60 * time.Second,
		})
	}
	sort.SliceStable(records, func(i, j int) bool {
		return records[i].Start.Before(records[j].Start)
	})
	return records
}

// TestMergeOrderedEquivalence is the tentpole property behind the
// query service's rolling windows: a left-fold of MergeOrdered over
// consecutive time slices of a stream — each slice snapshotted and
// restored, as the window composer does — finalizes bit-identically to
// one uninterrupted pass, for any cut placement, including sessions
// spanning every cut.
func TestMergeOrderedEquivalence(t *testing.T) {
	records := orderedWorkload(20000)
	ctx := engineCtx()
	opts := RunOptions{RareDays: []int{2, 5}, Seed: 1, BusyCells: engineBusyCells()}

	base := NewStreamingWithOptions(ctx, opts)
	if err := base.AddAll(cdr.NewSliceReader(records)); err != nil {
		t.Fatal(err)
	}
	want := base.Finalize()
	if want.Handovers.Sessions == 0 || want.UsageSessions == 0 {
		t.Fatal("degenerate workload: no sessions")
	}

	tracked := opts
	tracked.TrackHeads = true

	for _, cuts := range [][]int{
		{len(records) / 2},
		{1, 2, 3},
		{0, 5000, 10000, 15000}, // leading empty slice
		{4000, 4001, 12000, len(records) - 1},
	} {
		bounds := append(append([]int{0}, cuts...), len(records))
		var fold *Streaming
		for b := 0; b+1 < len(bounds); b++ {
			s := NewStreamingWithOptions(ctx, tracked)
			if err := s.AddAll(cdr.NewSliceReader(records[bounds[b]:bounds[b+1]])); err != nil {
				t.Fatal(err)
			}
			// Round-trip each slice through its snapshot so the fold
			// exercises the persisted head/tail state, not just the
			// live one.
			var buf bytes.Buffer
			if err := s.SnapshotTo(&buf); err != nil {
				t.Fatalf("cuts %v: snapshot slice %d: %v", cuts, b, err)
			}
			restored, err := RestoreStreaming(ctx, tracked, bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("cuts %v: restore slice %d: %v", cuts, b, err)
			}
			if fold == nil {
				fold = restored
				continue
			}
			if err := fold.MergeOrdered(restored); err != nil {
				t.Fatalf("cuts %v: merge slice %d: %v", cuts, b, err)
			}
		}
		got := fold.Finalize()
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("cuts %v: folded report diverges from single pass\nwant %+v\ngot  %+v", cuts, want, got)
		}
		if again := fold.Finalize(); !reflect.DeepEqual(got, again) {
			t.Fatalf("cuts %v: Finalize not repeatable after ordered fold", cuts)
		}
	}
}

// TestMergeOrderedStitchesBoundarySession pins the mechanism on a
// hand-built case: one car whose four records form a single mobility
// session, cut down the middle. A car-disjoint Merge would count two
// sessions; MergeOrdered must rebuild one.
func TestMergeOrderedStitchesBoundarySession(t *testing.T) {
	ctx := engineCtx()
	cell := func(bs radio.BSID) radio.CellKey { return radio.MakeCellKey(bs, 0, radio.C1) }
	rec := func(offset time.Duration, bs radio.BSID) cdr.Record {
		return cdr.Record{Car: 1, Cell: cell(bs), Start: t0.Add(offset), Duration: 60 * time.Second}
	}
	records := []cdr.Record{
		rec(0, 1), rec(70*time.Second, 2),
		rec(140*time.Second, 3), rec(210*time.Second, 4),
	}

	tracked := RunOptions{TrackHeads: true}
	a := NewStreamingWithOptions(ctx, tracked)
	b := NewStreamingWithOptions(ctx, tracked)
	for _, r := range records[:2] {
		a.Add(r)
	}
	for _, r := range records[2:] {
		b.Add(r)
	}
	if err := a.MergeOrdered(b); err != nil {
		t.Fatal(err)
	}
	got := a.Finalize()
	if got.Handovers.Sessions != 1 {
		t.Fatalf("stitched fold counts %d mobility sessions, want 1", got.Handovers.Sessions)
	}
	// All three handovers (1→2, 2→3, 3→4) must survive the stitch,
	// including the 2→3 transition that crosses the cut itself.
	total := int64(0)
	for _, c := range got.Handovers.ByKind {
		total += c
	}
	if total != 3 {
		t.Fatalf("stitched fold counts %d handovers, want 3", total)
	}
}

// TestMergeOrderedRequiresTrackHeads: folding a slice built without
// head tracking must fail loudly instead of double-counting.
func TestMergeOrderedRequiresTrackHeads(t *testing.T) {
	ctx := engineCtx()
	a := NewStreamingWithOptions(ctx, RunOptions{TrackHeads: true})
	b := NewStreamingWithOptions(ctx, RunOptions{})
	if err := a.MergeOrdered(b); err == nil {
		t.Fatal("MergeOrdered accepted a slice built without TrackHeads")
	}
}

// FuzzMergeOrderedGrouping pins the associativity the query store's
// day roll-ups rest on: over a random fleet meeting the precondition,
// cut at random points into 3–6 slices, every parenthesisation of the
// ordered fold — each intermediate taken through SnapshotTo and
// RestoreStreaming — finalizes to the bytes of the left fold and of the
// single pass, and sees no overlap witness. It also pins what the store
// folds a memoised roll-up by: a merge leaves each later slice's bytes
// as they were, and the in-memory slices, folded into two
// accumulators in turn, render what their encodings fold to.
func FuzzMergeOrderedGrouping(f *testing.F) {
	for seed := uint64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	ctx := engineCtx()
	opts := RunOptions{RareDays: []int{2, 5}, Seed: 1, BusyCells: engineBusyCells(), TrackHeads: true}
	// The bytes /report/full serves: query.MarshalReport, which this
	// package cannot import.
	render := func(s *Streaming) []byte {
		rep := s.Finalize()
		body, err := json.MarshalIndent(&rep, "", "  ")
		if err != nil {
			f.Fatal(err)
		}
		return body
	}

	f.Fuzz(func(t *testing.T, seed uint64) {
		rng := rand.New(rand.NewPCG(seed, 17))
		records := orderedFleet(rng, 200+int(rng.Uint64N(400)), 5+rng.Uint64N(40))
		slices := 3 + int(rng.Uint64N(4))
		bounds := []int{0, len(records)}
		for len(bounds) < slices+1 {
			bounds = append(bounds, int(rng.Uint64N(uint64(len(records)+1))))
		}
		sort.Ints(bounds)

		encode := func(s *Streaming) []byte {
			var buf bytes.Buffer
			if err := s.SnapshotTo(&buf); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}
		restore := func(enc []byte) *Streaming {
			s, err := RestoreStreaming(ctx, opts, bytes.NewReader(enc))
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		single := NewStreamingWithOptions(ctx, opts)
		encs := make([][]byte, slices)
		live := make([]*Streaming, slices)
		for i := range encs {
			live[i] = NewStreamingWithOptions(ctx, opts)
			for _, r := range records[bounds[i]:bounds[i+1]] {
				live[i].Add(r)
				single.Add(r)
			}
			encs[i] = encode(live[i])
		}
		want := render(single)

		left := restore(encs[0])
		for i, enc := range encs[1:] {
			later := restore(enc)
			if err := left.MergeOrdered(later); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(encode(later), enc) {
				t.Fatalf("seed %d, bounds %v: folding slice %d changed it", seed, bounds, i+1)
			}
		}
		if got := render(left); !bytes.Equal(got, want) {
			t.Fatalf("seed %d, bounds %v: left fold differs from the single pass", seed, bounds)
		}
		// The in-memory slices, folded as the store folds a memoised
		// roll-up: every slice into one accumulator and, in turn, the
		// even ones into a second, which must render what the same fold
		// of their encodings does. Two folds extending one adopted span
		// array in place would write different fragments into it.
		every, even, evenRef := NewStreamingWithOptions(ctx, opts), NewStreamingWithOptions(ctx, opts), NewStreamingWithOptions(ctx, opts)
		for i, s := range live {
			if err := every.MergeOrdered(s); err != nil {
				t.Fatal(err)
			}
			if i%2 == 0 {
				if err := even.MergeOrdered(s); err != nil {
					t.Fatal(err)
				}
				if err := evenRef.MergeOrdered(restore(encs[i])); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(encode(s), encs[i]) {
				t.Fatalf("seed %d, bounds %v: folding in-memory slice %d changed it", seed, bounds, i)
			}
		}
		if !bytes.Equal(render(every), want) || !bytes.Equal(render(even), render(evenRef)) {
			t.Fatalf("seed %d, bounds %v: in-memory slices fold to other bytes than their encodings", seed, bounds)
		}

		// groupings returns the encoded result of every parenthesisation
		// of slices [lo, hi), in a fixed order.
		memo := map[[2]int][][]byte{}
		var groupings func(lo, hi int) [][]byte
		groupings = func(lo, hi int) [][]byte {
			if hi-lo == 1 {
				return [][]byte{encs[lo]}
			}
			if out, ok := memo[[2]int{lo, hi}]; ok {
				return out
			}
			var out [][]byte
			for mid := lo + 1; mid < hi; mid++ {
				ls, rs := groupings(lo, mid), groupings(mid, hi)
				for _, l := range ls {
					for _, r := range rs {
						acc := restore(l)
						if err := acc.MergeOrdered(restore(r)); err != nil {
							t.Fatal(err)
						}
						if n := acc.OrderedOverlaps(); n != 0 {
							t.Fatalf("seed %d: %d overlap witnesses on a conforming fleet", seed, n)
						}
						out = append(out, encode(acc))
					}
				}
			}
			memo[[2]int{lo, hi}] = out
			return out
		}
		all := groupings(0, slices)
		if catalan := []int{2, 5, 14, 42}[slices-3]; len(all) != catalan {
			t.Fatalf("%d groupings of %d slices, want %d", len(all), slices, catalan)
		}
		for i, enc := range all {
			if got := render(restore(enc)); !bytes.Equal(got, want) {
				t.Fatalf("seed %d, bounds %v: grouping %d of %d differs from the single pass:\n%s\nvs\n%s",
					seed, bounds, i, len(all), got, want)
			}
		}
	})
}

// TestMergeOrderedOverlapWitness pins the case the precondition
// excludes: a stuck record whose end bridges two hourly boundaries.
// The slices after it split what a single pass keeps whole, the fold
// disagrees with the single pass by a usage session, and the witness
// counter says so.
func TestMergeOrderedOverlapWitness(t *testing.T) {
	ctx := engineCtx()
	opts := RunOptions{TrackHeads: true}
	rec := func(offset, dur time.Duration) cdr.Record {
		return cdr.Record{Car: 1, Cell: radio.MakeCellKey(1, 0, radio.C1), Start: t0.Add(offset), Duration: dur}
	}
	hours := [][]cdr.Record{
		{rec(50*time.Minute, 150*time.Minute)}, // stuck until 03:20
		{rec(70*time.Minute, time.Minute)},
		{rec(130*time.Minute, time.Minute), rec(132*time.Minute, time.Minute)},
	}

	single := NewStreamingWithOptions(ctx, opts)
	var fold *Streaming
	for _, hour := range hours {
		s := NewStreamingWithOptions(ctx, opts)
		for _, r := range hour {
			s.Add(r)
			single.Add(r)
		}
		if fold == nil {
			fold = s
		} else if err := fold.MergeOrdered(s); err != nil {
			t.Fatal(err)
		}
	}
	if n := single.OrderedOverlaps(); n != 0 {
		t.Fatalf("a single pass reports %d overlap witnesses", n)
	}
	if n := fold.OrderedOverlaps(); n == 0 {
		t.Fatal("fold across a stuck record reports no overlap witness")
	}
	if one, folded := single.Finalize().UsageSessions, fold.Finalize().UsageSessions; one != 1 || folded != 2 {
		t.Fatalf("usage sessions: single pass %d, fold %d; want 1 and 2", one, folded)
	}
}

// TestMergeLeavesOperandUnchanged pins that a merge only reads its
// operand, which is what lets the query store fold one memoised roll-up
// into every window miss, concurrently: for every stage, under Merge
// and MergeOrdered, the operand's frame encodes to the same bytes
// before the merge, after it, and after the receiver goes on taking
// records — some starting new sessions of cars whose open session came
// from the operand, which is when Add recycles a closed session's span
// array, and some of new cars in the operand's cells and bins. The
// other way round too, since a merge never aliases its operand: the
// receiver's frames stay put while the operand takes more records.
func TestMergeLeavesOperandUnchanged(t *testing.T) {
	ctx := engineCtx()
	records := orderedWorkload(12000)
	third := len(records) / 3
	frames := func(s *Streaming) [][]byte {
		s.set.flush()
		out := make([][]byte, len(s.set.stages))
		for i, acc := range s.set.stages {
			if acc == nil {
				t.Fatalf("stage %s not built", stageTable[i].name)
			}
			var buf bytes.Buffer
			if err := acc.SnapshotTo(&buf); err != nil {
				t.Fatal(err)
			}
			out[i] = buf.Bytes()
		}
		return out
	}
	for _, mode := range []struct {
		name    string
		ordered bool
	}{{"Merge", false}, {"MergeOrdered", true}} {
		t.Run(mode.name, func(t *testing.T) {
			// One side tracks heads, as MergeOrdered needs of its
			// operand, and the other does not, so its Add recycles the
			// span arrays it settles.
			opOpts := RunOptions{RareDays: []int{2, 5}, Seed: 1, BusyCells: engineBusyCells(), TrackHeads: mode.ordered}
			recvOpts := opOpts
			recvOpts.TrackHeads = !mode.ordered
			recv, op := NewStreamingWithOptions(ctx, recvOpts), NewStreamingWithOptions(ctx, opOpts)
			// Time-adjacent slices of the same cars, or car-disjoint
			// shards of the same span.
			ofOp := func(r cdr.Record) bool { return mode.ordered || r.Car%2 == 1 }
			for k, r := range records[:2*third] {
				if mode.ordered && k >= third || !mode.ordered && ofOp(r) {
					op.Add(r)
				} else {
					recv.Add(r)
				}
			}
			before := frames(op)
			if mode.ordered {
				if err := recv.MergeOrdered(op); err != nil {
					t.Fatal(err)
				}
			} else {
				recv.set.merge(op.set, false)
			}
			merged := frames(op)
			for _, r := range records[2*third:] {
				recv.Add(r)
			}
			for _, r := range records[third : 2*third] {
				r.Car += 1 << 20
				recv.Add(r)
			}
			added := frames(op)
			recvBefore := frames(recv)
			for _, r := range records[2*third:] {
				if ofOp(r) {
					op.Add(r)
				}
			}
			recvAfter := frames(recv)
			for i, st := range stageTable {
				t.Run(st.name, func(t *testing.T) {
					if !bytes.Equal(before[i], merged[i]) {
						t.Error("the merge changed its operand")
					}
					if !bytes.Equal(before[i], added[i]) {
						t.Error("Adds to the receiver changed the operand")
					}
					if !bytes.Equal(recvBefore[i], recvAfter[i]) {
						t.Error("Adds to the operand changed the receiver")
					}
				})
			}
		})
	}
}
