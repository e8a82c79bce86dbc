package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"
	"time"

	"cellcars/internal/cdr"
)

// streamOf returns a fresh accumulator fed records.
func streamOf(t *testing.T, ctx Context, opts RunOptions, records []cdr.Record) *Streaming {
	t.Helper()
	s := NewStreamingWithOptions(ctx, opts)
	if err := s.AddAll(cdr.NewSliceReader(records)); err != nil {
		t.Fatal(err)
	}
	return s
}

// foldImage is what a fold is compared by: its snapshot bytes, its
// finalized report as JSON and its overlap witnesses.
func foldImage(t *testing.T, s *Streaming) string {
	t.Helper()
	var buf bytes.Buffer
	if err := s.SnapshotTo(&buf); err != nil {
		t.Fatal(err)
	}
	rep, err := json.Marshal(s.Finalize())
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x\n%s\noverlaps %d", buf.Bytes(), rep, s.OrderedOverlaps())
}

// waitGoroutines fails t unless the goroutine count falls back to n: a
// goroutine that has called wg.Done may take a moment to exit.
func waitGoroutines(t *testing.T, n int) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > n; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines outlive the merge (%d before it)", runtime.NumGoroutine(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestMergeOrderedAllMatchesPairwise holds the stage-major list fold to
// the operand-major one it replaced: MergeOrderedAll over N time slices
// leaves the same snapshot bytes, report and overlap witnesses as N
// successive MergeOrdered calls made at one proc, for N from 1 to 16,
// on a feed inside the exactness precondition and one outside it, with
// one operand whose durations stage failed, at GOMAXPROCS 1, 2 and 4.
func TestMergeOrderedAllMatchesPairwise(t *testing.T) {
	ctx := engineCtx()
	opts := RunOptions{RareDays: []int{2, 5}, Seed: 1, BusyCells: engineBusyCells(), TrackHeads: true}
	ordered := orderedFleet(rand.New(rand.NewPCG(41, 1)), 5000, 150)
	// Every seventh record stuck for two hours: stitches that start
	// before the earlier tail ends, the witnesses OrderedOverlaps counts.
	overlapping := slices.Clone(ordered)
	for k := range overlapping {
		if k%7 == 0 {
			overlapping[k].Duration += 2 * time.Hour
		}
	}
	for _, feed := range []struct {
		name    string
		records []cdr.Record
		fail    bool
	}{
		{"ordered", ordered, false},
		{"overlapping", overlapping, false},
		{"failstage", ordered, true},
	} {
		t.Run(feed.name, func(t *testing.T) {
			for n := 1; n <= 16; n++ {
				// n+1 consecutive slices: the receiver's, then n operands.
				bound := func(k int) int { return k * len(feed.records) / (n + 1) }
				laters := make([]*Streaming, n)
				for k := range laters {
					o := opts
					if feed.fail && k == n/2 {
						o.FailStage = "durations"
					}
					laters[k] = streamOf(t, ctx, o, feed.records[bound(k+1):bound(k+2)])
				}
				first := feed.records[:bound(1)]

				var want string
				func() {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
					pair := streamOf(t, ctx, opts, first)
					for _, later := range laters {
						if err := pair.MergeOrdered(later); err != nil {
							t.Fatal(err)
						}
					}
					want = foldImage(t, pair)
				}()
				for _, procs := range []int{1, 2, 4} {
					func() {
						defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
						list := streamOf(t, ctx, opts, first)
						if err := list.MergeOrderedAll(laters); err != nil {
							t.Fatal(err)
						}
						if got := foldImage(t, list); got != want {
							t.Fatalf("%d operands, GOMAXPROCS %d: the list fold differs from the pairwise fold", n, procs)
						}
						rep := list.Finalize()
						if failed := slices.ContainsFunc(rep.StageErrors, func(e StageError) bool { return e.Stage == "durations" }); failed != feed.fail {
							t.Fatalf("%d operands: durations failed %v, want %v", n, failed, feed.fail)
						}
						if n == 16 && (list.OrderedOverlaps() > 0) != (feed.name == "overlapping") {
							t.Fatalf("%s feed: %d overlap witnesses", feed.name, list.OrderedOverlaps())
						}
					}()
				}
			}
		})
	}

	t.Run("empty", func(t *testing.T) {
		want := foldImage(t, streamOf(t, ctx, opts, ordered))
		s := streamOf(t, ctx, opts, ordered)
		if err := s.MergeOrderedAll(nil); err != nil {
			t.Fatal(err)
		}
		if got := foldImage(t, s); got != want {
			t.Fatal("folding no operands changed the receiver")
		}
	})
}

// TestEngineMergeAllMatchesPairwise is the plain-Merge case: the
// engine's one list fold of its worker sets finalizes like worker sets
// built from the same shards and folded in one at a time, at one
// worker to four.
func TestEngineMergeAllMatchesPairwise(t *testing.T) {
	records := engineWorkload(12000)
	ctx := engineCtx()
	opts := RunOptions{RareDays: []int{2, 5}, Seed: 1, BusyCells: engineBusyCells()}
	for workers := 1; workers <= 4; workers++ {
		got, err := NewEngine(ctx, EngineOptions{RunOptions: opts, Workers: workers}).Run(records)
		if err != nil {
			t.Fatal(err)
		}
		shards := make([][]cdr.Record, workers)
		for _, r := range records {
			k := cdr.ShardOfCar(r.Car, workers)
			shards[k] = append(shards[k], r)
		}
		root := streamOf(t, ctx, opts, shards[0]).set
		for _, shard := range shards[1:] {
			root.merge(streamOf(t, ctx, opts, shard).set, false)
		}
		a, _ := json.Marshal(got)
		b, _ := json.Marshal(root.finalize())
		if !bytes.Equal(a, b) {
			t.Fatalf("workers %d: the engine's list fold differs from the pairwise fold", workers)
		}
	}
}

// panicMerge is a stage whose merges panic: a bug in one stage's merge.
type panicMerge struct{ Accumulator }

func (panicMerge) Merge(Accumulator, []int32) { panic("merge bug") }

// TestStageMergePanicReachesCaller pins that a stage merge's panic,
// on whichever goroutine the stage folded, is raised on the caller once
// every stage has joined, and that no goroutine outlives the fold.
func TestStageMergePanicReachesCaller(t *testing.T) {
	ctx := engineCtx()
	opts := RunOptions{BusyCells: engineBusyCells(), TrackHeads: true}
	records := orderedWorkload(3000)
	durations := stageIndex("durations")
	for _, procs := range []int{1, 2, 4} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			recv := streamOf(t, ctx, opts, records[:1000])
			recv.set.stages[durations] = panicMerge{recv.set.stages[durations]}
			laters := []*Streaming{streamOf(t, ctx, opts, records[1000:2000]), streamOf(t, ctx, opts, records[2000:])}
			before := runtime.NumGoroutine()
			p := func() (p any) {
				defer func() { p = recover() }()
				recv.MergeOrderedAll(laters)
				return nil
			}()
			if p != "merge bug" {
				t.Fatalf("GOMAXPROCS %d: the caller recovered %v, want the stage's panic", procs, p)
			}
			waitGoroutines(t, before)
		}()
	}
}
