package analysis

import (
	"errors"
	"io"
	"math"
	"strings"
	"testing"
	"time"

	"cellcars/internal/cdr"
	"cellcars/internal/simtime"
	"cellcars/internal/synth"
)

// genWorkload produces a deterministic synthetic data set for the
// chaos acceptance tests: a small fleet over two weeks, no
// data-loss window (that is exercised separately).
func genWorkload(t *testing.T) ([]cdr.Record, simtime.Period) {
	t.Helper()
	period := simtime.NewPeriod(t0, 14)
	w := synth.NewWorld(synth.Config{
		Seed:     7,
		NumCars:  30,
		Period:   period,
		LossDays: []int{}, // non-nil: disable the default loss window
	})
	records, _ := w.GenerateAll()
	if len(records) < 1000 {
		t.Fatalf("workload too small for a meaningful chaos run: %d records", len(records))
	}
	return records, period
}

// relDiff returns |a-b| relative to b (0 when both are 0).
func relDiff(a, b float64) float64 {
	if b == 0 {
		return math.Abs(a)
	}
	return math.Abs(a-b) / math.Abs(b)
}

// TestStreamingSurvivesChaos is the headline acceptance test: corrupt
// ~1% of the records of a generated data set, run the streaming
// pipeline end to end behind the resilient reader, and require that
// (a) the run completes, (b) the quarantine accounts for at least the
// injected corruption, and (c) Table 1 presence and the Figure 9
// duration median stay within 2% of the clean run.
func TestStreamingSurvivesChaos(t *testing.T) {
	records, period := genWorkload(t)

	clean := NewStreamingWithOptions(Context{Period: period}, RunOptions{})
	if err := clean.AddAll(cdr.NewSliceReader(records)); err != nil {
		t.Fatal(err)
	}
	cleanRep := clean.Finalize()

	chaos := cdr.NewChaosReader(cdr.NewSliceReader(records), cdr.ChaosConfig{
		Seed:        99,
		CorruptProb: 0.01,
	})
	rr := cdr.NewResilientReader(chaos, cdr.ResilientConfig{MaxBadFrac: 0.05})
	dirty := NewStreamingWithOptions(Context{Period: period}, RunOptions{})
	if err := dirty.AddAll(rr); err != nil {
		t.Fatalf("streaming pipeline died under 1%% corruption: %v", err)
	}
	dirtyRep := dirty.Finalize()

	injected := chaos.Stats().Corrupted
	if injected == 0 {
		t.Fatal("chaos injected nothing; the test proves nothing")
	}
	stats := rr.Stats()
	if got := stats.QuarantinedTotal(); got < injected {
		t.Fatalf("quarantined %d < injected %d: corrupted records leaked into analysis", got, injected)
	}
	if stats.Read != int64(len(records))-injected {
		t.Fatalf("read %d records, want %d - %d", stats.Read, len(records), injected)
	}

	// Table 1: every weekday row of the presence table within 2%.
	if len(dirtyRep.WeekdayRows) != len(cleanRep.WeekdayRows) {
		t.Fatalf("weekday rows %d vs %d", len(dirtyRep.WeekdayRows), len(cleanRep.WeekdayRows))
	}
	for i, want := range cleanRep.WeekdayRows {
		got := dirtyRep.WeekdayRows[i]
		if relDiff(got.CarsMean, want.CarsMean) > 0.02 {
			t.Errorf("%s cars mean %.4f vs clean %.4f (>2%%)", want.Label, got.CarsMean, want.CarsMean)
		}
		if relDiff(got.CellsMean, want.CellsMean) > 0.02 {
			t.Errorf("%s cells mean %.4f vs clean %.4f (>2%%)", want.Label, got.CellsMean, want.CellsMean)
		}
	}

	// Figure 9: truncated-duration median within 2%.
	if cleanRep.DurMedian <= 0 {
		t.Fatal("clean run produced no duration median")
	}
	if relDiff(dirtyRep.DurMedian, cleanRep.DurMedian) > 0.02 {
		t.Fatalf("duration median %.2f vs clean %.2f (>2%%)", dirtyRep.DurMedian, cleanRep.DurMedian)
	}
}

// TestStreamingBeyondBudgetFailsFast proves the error budget: with
// corruption far above the configured budget the pipeline must abort
// quickly with a diagnostic naming the dominant corruption class
// instead of producing a silently wrong report.
func TestStreamingBeyondBudgetFailsFast(t *testing.T) {
	records, period := genWorkload(t)
	chaos := cdr.NewChaosReader(cdr.NewSliceReader(records), cdr.ChaosConfig{
		Seed:        5,
		CorruptProb: 0.30,
	})
	rr := cdr.NewResilientReader(chaos, cdr.ResilientConfig{MaxBadFrac: 0.05, MinRecords: 100})
	s := NewStreamingWithOptions(Context{Period: period}, RunOptions{})
	err := s.AddAll(rr)
	var be *cdr.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want *cdr.BudgetError", err)
	}
	if !strings.Contains(err.Error(), "bad-field") {
		t.Fatalf("budget abort must name the dominant corruption class: %q", err)
	}
	// Fail fast: the abort must come well before the stream ends.
	if be.Stats.Attempted() > int64(len(records))/2 {
		t.Fatalf("abort after %d of %d records is not fast", be.Stats.Attempted(), len(records))
	}
}

// TestRunStageIsolation proves graceful degradation of the batch
// pipeline: one artificially failing stage is reported in StageErrors
// while every other table and figure is still produced.
func TestRunStageIsolation(t *testing.T) {
	var records []cdr.Record
	for d := 0; d < 14; d++ {
		base := time.Duration(d) * 24 * time.Hour
		records = append(records,
			rec(1, cell(1), base+8*time.Hour, 2*time.Minute),
			rec(1, cell(2), base+8*time.Hour+3*time.Minute, 2*time.Minute),
			rec(2, cell(2), base+9*time.Hour, 5*time.Minute),
		)
	}
	ctx := Context{Period: simtime.NewPeriod(t0, 14)}

	r, err := NewEngine(ctx, EngineOptions{RunOptions: RunOptions{FailStage: "durations"}}).Run(records)
	if err != nil {
		t.Fatal(err)
	}
	fail := r.Failed("durations")
	if fail == nil || !strings.Contains(fail.Err, "injected") {
		t.Fatalf("failed stage not recorded: %+v", r.StageErrors)
	}
	if len(r.StageErrors) != 1 {
		t.Fatalf("extra stage failures: %+v", r.StageErrors)
	}
	// The other stages still delivered.
	if r.Presence.TotalCars != 2 {
		t.Fatalf("presence skipped: %+v", r.Presence)
	}
	if r.DaysHist == nil {
		t.Fatal("days histogram skipped")
	}
	if r.Handovers.Sessions == 0 {
		t.Fatal("handovers skipped")
	}
	if r.Carriers.TotalCars != 2 {
		t.Fatal("carriers skipped")
	}
	// The failed stage's output stays at its zero value.
	if r.Durations.Truncated != nil || r.Durations.Median != 0 {
		t.Fatalf("failed stage still produced output: %+v", r.Durations)
	}
}

// panicAcc is a stage accumulator that explodes on its first record.
type panicAcc struct{}

func (panicAcc) Stage() string               { return "presence" }
func (panicAcc) Add(*batch)                  { panic("stage exploded") }
func (panicAcc) Merge(Accumulator, []int32)  {}
func (panicAcc) Finalize(*Report) error      { return nil }
func (panicAcc) SnapshotTo(io.Writer) error  { return nil }
func (panicAcc) RestoreFrom(io.Reader) error { return nil }

// TestRunStageRecoversPanic proves a panicking stage degrades to a
// diagnostic instead of killing the run: the engine drops the stage,
// records the panic, and the other stages keep absorbing records.
func TestRunStageRecoversPanic(t *testing.T) {
	s := newAccumSet(Context{Period: simtime.NewPeriod(t0, 7)}, EngineOptions{}, 0)
	s.stages[0] = panicAcc{}
	s.add(rec(1, cell(1), time.Hour, time.Minute))
	s.flush()
	rep := s.finalize()
	if len(rep.StageErrors) != 1 || !strings.Contains(rep.StageErrors[0].Err, "stage exploded") {
		t.Fatalf("panic not captured: %+v", rep.StageErrors)
	}
	if rep.StageErrors[0].Stage != "presence" {
		t.Fatalf("wrong stage blamed: %+v", rep.StageErrors)
	}
	// A sibling stage still processed the record.
	if rep.Carriers.TotalCars != 1 {
		t.Fatalf("sibling stage lost the record: %+v", rep.Carriers)
	}
}
