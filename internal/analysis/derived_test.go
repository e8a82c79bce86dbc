package analysis

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"cellcars/internal/cdr"
	"cellcars/internal/radio"
)

// eachFailedSplit runs records under opts every way a report is put
// together — Engine.Run at one to four workers, a two-worker checkpoint
// killed twice and resumed, and per-shard partials read back with
// ReadPartial and folded with Partial.Merge — and hands each report to
// check.
func eachFailedSplit(t *testing.T, ctx Context, opts RunOptions, records []cdr.Record, check func(how string, rep *Report)) {
	t.Helper()
	for workers := 1; workers <= 4; workers++ {
		rep, err := NewEngine(ctx, EngineOptions{RunOptions: opts, Workers: workers}).Run(records)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("Engine.Run workers=%d", workers), rep)
	}

	n := len(records)
	eopts := EngineOptions{RunOptions: opts, Workers: 2}
	cfg := CheckpointConfig{Path: filepath.Join(t.TempDir(), "failed.snap"), Every: int64(n / 5)}
	for i, kill := range []int{n / 3, 2 * n / 3} {
		cfg.Resume = i > 0
		_, err := NewEngine(ctx, eopts).RunReaderCheckpointed(&faultReader{r: cdr.NewSliceReader(records), n: kill, err: errKilled}, cfg)
		if !errors.Is(err, errKilled) {
			t.Fatalf("kill=%d: want simulated crash, got %v", kill, err)
		}
	}
	cfg.Resume = true
	rep, err := NewEngine(ctx, eopts).RunReaderCheckpointed(cdr.NewSliceReader(records), cfg)
	if err != nil {
		t.Fatal(err)
	}
	check("resumed RunReaderCheckpointed", rep)

	var root *Partial
	for _, shard := range shardByFilter(t, records, 3) {
		s := NewStreamingWithOptions(ctx, opts)
		if err := s.AddAll(cdr.NewSliceReader(shard)); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := s.SnapshotTo(&buf); err != nil {
			t.Fatal(err)
		}
		p, err := ReadPartial(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if root == nil {
			root = p
		} else if err := root.Merge(p, false); err != nil {
			t.Fatal(err)
		}
	}
	check("ReadPartial and Partial.Merge of 3 shards", root.Finalize())
}

// stageOutputs reports which of the stages over presence's facts left a
// result in rep, and whether presence did.
func stageOutputs(rep *Report) map[string]bool {
	return map[string]bool{
		"presence": rep.Presence.TotalCars > 0,
		"days":     rep.DaysHist != nil,
		"segments": len(rep.Segments) > 0,
		"busy":     rep.Busy.FracByCar != nil,
	}
}

// TestFailedPresenceFailsItsReaders: the days, segments and busy stages
// finalize presence's per-car facts, so a failed presence fails each of
// them, naming it, and leaves none half computed; a failed reader fails
// only itself. Every way a report is put together, and for a presence
// that panics on its records as for one failed up front.
func TestFailedPresenceFailsItsReaders(t *testing.T) {
	const injected = "injected failure (FailStage)"
	const input = "input stage presence failed"
	records := engineWorkload(6000)
	for _, tc := range []struct {
		name string
		ctx  Context
		fail string
		want map[string]string
	}{
		{"FailStage presence", engineCtx(), "presence", map[string]string{"presence": injected, "days": input, "segments": input, "busy": input}},
		{"presence panics", Context{Period: engineCtx().Period, Load: panicLoad{}}, "",
			map[string]string{"presence": "panic: load source exploded", "days": input, "segments": input, "busy": input}},
		{"FailStage segments", engineCtx(), "segments", map[string]string{"segments": injected}},
		{"FailStage days", engineCtx(), "days", map[string]string{"days": injected}},
		{"FailStage busy", engineCtx(), "busy", map[string]string{"busy": injected}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eachFailedSplit(t, tc.ctx, RunOptions{FailStage: tc.fail}, records, func(how string, rep *Report) {
				got := make(map[string]string)
				for _, se := range rep.StageErrors {
					got[se.Stage] = se.Err
				}
				if !maps.Equal(got, tc.want) {
					t.Fatalf("%s: stage errors %v, want %v", how, got, tc.want)
				}
				for stage, out := range stageOutputs(rep) {
					if _, failed := tc.want[stage]; out == failed {
						t.Fatalf("%s: stage %s left a result %v, failed %v", how, stage, out, failed)
					}
				}
			})
		})
	}
}

// TestMergeFailsTheReadersOfAFailedPresence: a partial whose presence
// failed, folded into a whole one, fails the receiver's presence and
// with it the stages over it; the rest stay whole.
func TestMergeFailsTheReadersOfAFailedPresence(t *testing.T) {
	ctx := engineCtx()
	shards := shardByFilter(t, engineWorkload(6000), 2)
	partial := func(opts RunOptions, recs []cdr.Record) *Partial {
		s := NewStreamingWithOptions(ctx, opts)
		if err := s.AddAll(cdr.NewSliceReader(recs)); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := s.SnapshotTo(&buf); err != nil {
			t.Fatal(err)
		}
		p, err := ReadPartial(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	whole, degraded := partial(RunOptions{}, shards[0]), partial(RunOptions{FailStage: "presence"}, shards[1])
	if err := whole.Merge(degraded, false); err != nil {
		t.Fatal(err)
	}
	rep := whole.Finalize()
	for stage, out := range stageOutputs(rep) {
		if out || rep.Failed(stage) == nil {
			t.Errorf("stage %s left a result %v beside a failed presence; errors %v", stage, out, rep.StageErrors)
		}
	}
	if rep.Carriers.TotalCars == 0 || rep.Failed("carriers") != nil {
		t.Errorf("carriers lost with presence: %v", rep.StageErrors)
	}
}

// panicLoad is a load source that panics when asked: a bug in it.
type panicLoad struct{}

func (panicLoad) Utilization(radio.CellKey, int) float64 { panic("load source exploded") }
func (panicLoad) BusyThreshold() float64                 { return 0.5 }

// countingLoad is stepLoad, counting the utilizations asked of it.
type countingLoad struct {
	stepLoad
	calls *atomic.Int64
}

func (l countingLoad) Utilization(c radio.CellKey, bin int) float64 {
	l.calls.Add(1)
	return l.stepLoad.Utilization(c, bin)
}

// TestUtilizationOncePerBin: a set works out each record's busy split
// once, for every stage that reads it — one utilization per record and
// 15-minute bin of the study it overlaps, at any worker count.
func TestUtilizationOncePerBin(t *testing.T) {
	records := loadWorkload()
	ctx := loadCtx()
	start, end := ctx.Period.Start(), ctx.Period.End()
	var want int64
	for _, r := range records {
		if r.Duration == time.Hour || r.Start.Before(start) || !r.Start.Before(end) {
			continue
		}
		for at := r.Start.Truncate(15 * time.Minute); at.Before(r.Start.Add(r.Duration)) && at.Before(end); at = at.Add(15 * time.Minute) {
			want++
		}
	}
	for workers := 1; workers <= 3; workers++ {
		var calls atomic.Int64
		ctx.Load = countingLoad{calls: &calls}
		rep, err := NewEngine(ctx, EngineOptions{Workers: workers}).Run(records)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Segments) == 0 || len(rep.Busy.FracByCar) == 0 {
			t.Fatal("the load stages left no result")
		}
		if got := calls.Load(); got != want {
			t.Errorf("workers=%d: %d utilizations asked for %d record bins", workers, got, want)
		}
	}
}
