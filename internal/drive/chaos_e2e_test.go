package drive

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"cellcars/internal/analysis"
	"cellcars/internal/cdr"
	"cellcars/internal/clitest"
	"cellcars/internal/obs"
	"cellcars/internal/radio"
	"cellcars/internal/simtime"
)

// The chaos suite re-executes the test binary as the worker process
// (the helper-binary pattern): with DRIVE_HELPER set, TestMain runs
// RunWorker from environment config instead of the tests. This gives
// the coordinator real subprocesses to kill, time out and validate,
// without depending on a separately built caranalyze.

func TestMain(m *testing.M) { clitest.Main(m, "DRIVE_HELPER", helperMain) }

func helperMain() {
	if os.Getenv("DRIVE_HANG") == "1" {
		select {}
	}
	if os.Getenv("DRIVE_FAIL") == "1" {
		fmt.Fprintln(os.Stderr, "injected helper failure")
		os.Exit(1)
	}
	shard, _ := strconv.Atoi(os.Getenv("DRIVE_SHARD"))
	shards, _ := strconv.Atoi(os.Getenv("DRIVE_SHARDS"))
	chaos, attempt, err := ChaosFromEnv()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	st, err := RunWorker(WorkerConfig{
		Inputs:  strings.Split(os.Getenv("DRIVE_INPUTS"), string(os.PathListSeparator)),
		Shard:   shard,
		Shards:  shards,
		Attempt: attempt,
		Out:     os.Getenv("DRIVE_OUT"),
		Ctx:     chaosTestCtx(),
		Opts:    helperOpts(),
		Ingest:  cdr.ResilientConfig{MaxBadFrac: -1},
		Chaos:   chaos,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	PrintStats(os.Stdout, st)
}

// helperOpts is chaosTestOpts unless DRIVE_ODD_STUDY asks this attempt
// to run under another study configuration.
func helperOpts() analysis.RunOptions {
	opts := chaosTestOpts()
	switch os.Getenv("DRIVE_ODD_STUDY") {
	case "rare":
		opts.RareDays = []int{5, 20}
	case "busy":
		opts.BusyCells = []radio.CellKey{radio.MakeCellKey(1, 0, radio.C1)}
	}
	return opts
}

func chaosTestPeriod() simtime.Period {
	return simtime.NewPeriod(time.Date(2017, 1, 2, 0, 0, 0, 0, time.UTC), 14)
}

func chaosTestCtx() analysis.Context {
	return analysis.Context{Period: chaosTestPeriod(), TZOffsetSeconds: -5 * 3600}
}

func chaosTestOpts() analysis.RunOptions {
	return analysis.RunOptions{Seed: 1, RareDays: []int{2, 5}}
}

// chaosRecords is n deterministic records split across two files with
// cars interleaved between them — the layout that forces car-disjoint
// sharding to span files.
func chaosRecords(n int) [2][]cdr.Record {
	rng := rand.New(rand.NewPCG(42, 7))
	period := chaosTestPeriod()
	var perFile [2][]cdr.Record
	for i := 0; i < n; i++ {
		rec := cdr.Record{
			Car: cdr.CarID(1 + rng.Uint64N(300)),
			Cell: radio.MakeCellKey(
				radio.BSID(1+rng.Uint64N(40)),
				radio.SectorID(rng.Uint64N(3)),
				radio.C1+radio.CarrierID(rng.Uint64N(uint64(radio.NumCarriers)))),
			Start:    period.Start().Add(time.Duration(rng.Uint64N(13*24*3600)) * time.Second),
			Duration: time.Duration(10+rng.Uint64N(1200)) * time.Second,
		}
		if i%97 == 13 {
			rec.Duration = time.Hour // a ghost, so cleaning has work to do
		}
		perFile[i%2] = append(perFile[i%2], rec)
	}
	return perFile
}

// writeChaosInputs writes chaosRecords(n) as two binary CDR files.
func writeChaosInputs(t *testing.T, dir string, n int) []string {
	t.Helper()
	paths := []string{filepath.Join(dir, "in0.cdr"), filepath.Join(dir, "in1.cdr")}
	for i, recs := range chaosRecords(n) {
		clitest.WriteCDR(t, paths[i], recs)
	}
	return paths
}

// helperCommand builds worker processes out of this test binary.
// extraEnv entries are appended per (shard, attempt) via the hook.
func helperCommand(hook func(spec WorkerSpec) []string) func(spec WorkerSpec) *exec.Cmd {
	return func(spec WorkerSpec) *exec.Cmd {
		cmd := clitest.Command("DRIVE_HELPER")
		cmd.Env = append(cmd.Env,
			"DRIVE_INPUTS="+strings.Join(spec.Inputs, string(os.PathListSeparator)),
			fmt.Sprintf("DRIVE_SHARD=%d", spec.Shard),
			fmt.Sprintf("DRIVE_SHARDS=%d", spec.Shards),
			"DRIVE_OUT="+spec.Out,
		)
		if hook != nil {
			cmd.Env = append(cmd.Env, hook(spec)...)
		}
		return cmd
	}
}

// baselineReport runs the whole input single-process, in-process — the
// ground truth the fault-tolerant distributed runs must reproduce
// bit-identically.
func baselineReport(t *testing.T, inputs []string) *analysis.Report {
	t.Helper()
	out := filepath.Join(t.TempDir(), "base.snap")
	if _, err := RunWorker(WorkerConfig{
		Inputs: inputs, Shard: 0, Shards: 1, Out: out,
		Ctx: chaosTestCtx(), Opts: chaosTestOpts(),
		Ingest: cdr.ResilientConfig{MaxBadFrac: -1},
	}); err != nil {
		t.Fatalf("baseline worker: %v", err)
	}
	p, err := analysis.ReadPartialFile(out)
	if err != nil {
		t.Fatalf("baseline read: %v", err)
	}
	return p.Finalize()
}

// chaosTestConfig is the suite's coordinator config. The coordinator
// runs in the test process and starts the workers itself, so the test
// adopts them: a worker alive when the test ends fails it.
func chaosTestConfig(t *testing.T, inputs []string, shards int) Config {
	t.Helper()
	work := filepath.Join(t.TempDir(), "work")
	clitest.Adopt(t)
	return Config{
		Inputs:       inputs,
		Shards:       shards,
		Parallel:     3,
		MaxAttempts:  3,
		RetryBackoff: 5 * time.Millisecond,
		MaxBackoff:   50 * time.Millisecond,
		JitterSeed:   1,
		WorkDir:      work,
	}
}

// TestCoordinatorCleanRun: no faults — every shard completes on its
// first attempt and the merged report is bit-identical to the
// single-process run.
func TestCoordinatorCleanRun(t *testing.T) {
	inputs := writeChaosInputs(t, t.TempDir(), 30_000)
	want := baselineReport(t, inputs)

	cfg := chaosTestConfig(t, inputs, 6)
	cfg.Command = helperCommand(nil)
	reg := obs.New()
	cfg.Obs = reg
	coord, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := coord.Run(context.Background())
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	if res.Done != 6 || res.Quarantined != 0 || res.Attempts != 6 || res.Retries != 0 {
		t.Fatalf("clean run outcome: %+v", res)
	}
	if !reflect.DeepEqual(want, res.Report) {
		t.Fatal("distributed report differs from single-process report")
	}
	if got := reg.Counter("cellcars_drive_attempts_total", obs.Label{Key: "outcome", Value: "ok"}).Value(); got != 6 {
		t.Fatalf("ok attempts metric = %d, want 6", got)
	}
	if got := reg.Counter("cellcars_drive_merge_inputs_total").Value(); got != 6 {
		t.Fatalf("merge inputs metric = %d, want 6", got)
	}
	if got := res.Records; got != int64(want.RawRecords) {
		t.Fatalf("result records %d, want %d", got, want.RawRecords)
	}
	// Neither attempt files nor anything merge-shaped may survive.
	for _, pat := range []string{"merge-*.snap", "shard*.a*.snap"} {
		if leftovers, _ := filepath.Glob(filepath.Join(cfg.WorkDir, pat)); len(leftovers) != 0 {
			t.Fatalf("left behind in the work directory: %v", leftovers)
		}
	}
}

// TestCoordinatorRejectsOddStudySnapshot: shard 1's first attempt
// writes a well-formed partial of another study — other rare-day
// thresholds, or another busy-cell set. Parallel is 1, so shard 0's
// header is the reference by then: the attempt must fail as
// bad-snapshot and be retried, not be journaled done and sink the whole
// run in the final merge.
func TestCoordinatorRejectsOddStudySnapshot(t *testing.T) {
	inputs := writeChaosInputs(t, t.TempDir(), 30_000)
	want := baselineReport(t, inputs)
	for _, odd := range []string{"rare", "busy"} {
		t.Run(odd, func(t *testing.T) {
			cfg := chaosTestConfig(t, inputs, 6)
			cfg.Parallel = 1
			cfg.Command = helperCommand(func(spec WorkerSpec) []string {
				if spec.Shard == 1 && spec.Attempt == 0 {
					return []string{"DRIVE_ODD_STUDY=" + odd}
				}
				return nil
			})
			reg := obs.New()
			cfg.Obs = reg
			coord, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := coord.Run(context.Background())
			if err != nil {
				t.Fatalf("run with one odd-study attempt: %v", err)
			}
			if res.Done != 6 || res.Quarantined != 0 || res.Attempts != 7 || res.Retries != 1 {
				t.Fatalf("outcome: %+v", res)
			}
			if got := reg.Counter("cellcars_drive_attempts_total", obs.Label{Key: "outcome", Value: ClassBadSnapshot}).Value(); got != 1 {
				t.Fatalf("bad-snapshot attempts metric = %d, want 1", got)
			}
			if first := coord.Status().Shards[1].Attempts[0]; first.Outcome != ClassBadSnapshot || !strings.Contains(first.Err, "differ") {
				t.Fatalf("odd attempt settled as %+v", first)
			}
			if !reflect.DeepEqual(want, res.Report) {
				t.Fatal("report differs from single-process report")
			}
		})
	}
}

// TestCoordinatorSurvivesKills: chaos SIGKILLs a fraction of attempts
// mid-stream; the coordinator retries until every shard completes and
// the final report is still bit-identical.
func TestCoordinatorSurvivesKills(t *testing.T) {
	inputs := writeChaosInputs(t, t.TempDir(), 30_000)
	want := baselineReport(t, inputs)

	// Seed 18 is chosen so several shards die on their first attempt but
	// no shard draws MaxAttempts consecutive kills (seed 11, say, kills
	// shard 0 six times in a row and would legitimately quarantine it).
	chaos, err := ParseChaos("kill=0.4,n=2000,seed=18")
	if err != nil {
		t.Fatal(err)
	}
	// The draws are deterministic: count how many first attempts die,
	// so the retry assertion is exact, not probabilistic.
	const shards = 6
	firstAttemptKills := 0
	for s := 0; s < shards; s++ {
		if chaos.plan(s, 0).mode == chaosKill {
			firstAttemptKills++
		}
	}
	if firstAttemptKills == 0 {
		t.Fatal("chaos seed injects no faults; pick another seed")
	}

	cfg := chaosTestConfig(t, inputs, shards)
	cfg.MaxAttempts = 6 // kills are random per attempt; give room
	cfg.Chaos = chaos
	cfg.Command = helperCommand(nil)
	coord, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := coord.Run(context.Background())
	if err != nil {
		t.Fatalf("chaos run: %v", err)
	}
	if res.Quarantined != 0 {
		t.Fatalf("unlucky seed quarantined %d shards; excluded: %+v", res.Quarantined, res.Excluded)
	}
	if res.Retries < firstAttemptKills {
		t.Fatalf("retries %d < %d first-attempt kills", res.Retries, firstAttemptKills)
	}
	if !reflect.DeepEqual(want, res.Report) {
		t.Fatal("report after crash-retries differs from single-process report")
	}
}

// TestCoordinatorQuarantinesPoisonedShard: shard 2's output is always
// bit-flipped; after the attempt budget it must be quarantined, the
// run must still complete, and the result must name the excluded shard
// with its failure class.
func TestCoordinatorQuarantinesPoisonedShard(t *testing.T) {
	inputs := writeChaosInputs(t, t.TempDir(), 30_000)
	want := baselineReport(t, inputs)

	chaos, err := ParseChaos("poison=2,seed=3")
	if err != nil {
		t.Fatal(err)
	}
	cfg := chaosTestConfig(t, inputs, 6)
	cfg.MaxAttempts = 2
	cfg.Chaos = chaos
	cfg.Command = helperCommand(nil)
	reg := obs.New()
	cfg.Obs = reg
	coord, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := coord.Run(context.Background())
	if err != nil {
		t.Fatalf("poisoned run must degrade, not fail: %v", err)
	}
	if res.Done != 5 || res.Quarantined != 1 {
		t.Fatalf("outcome: done %d, quarantined %d", res.Done, res.Quarantined)
	}
	if len(res.Excluded) != 1 {
		t.Fatalf("excluded = %+v", res.Excluded)
	}
	ex := res.Excluded[0]
	if ex.Shard != 2 || ex.Attempts != 2 || ex.LastClass != ClassBadSnapshot {
		t.Fatalf("excluded shard = %+v", ex)
	}
	if ex.Records <= 0 {
		t.Fatalf("excluded shard reports no lost records: %+v", ex)
	}
	if got := reg.Counter("cellcars_drive_quarantined_shards_total").Value(); got != 1 {
		t.Fatalf("quarantine metric = %d, want 1", got)
	}
	// The degraded report covers fewer records than the full run and
	// still finalizes.
	if res.Report.RawRecords >= want.RawRecords || res.Report.RawRecords <= 0 {
		t.Fatalf("degraded run raw records %d vs full %d", res.Report.RawRecords, want.RawRecords)
	}
	q := &analysis.DataQuality{ExcludedShards: res.Excluded}
	if s := q.Summary(); !strings.Contains(s, "excluded shards 1") {
		t.Fatalf("quality summary does not name the exclusion: %q", s)
	}
}

// TestCoordinatorSpeculationBeatsStraggler: shard 0's first attempt
// hangs forever; with no attempt timeout only speculation can finish
// the run, and its duplicate attempt must win.
func TestCoordinatorSpeculationBeatsStraggler(t *testing.T) {
	inputs := writeChaosInputs(t, t.TempDir(), 30_000)
	want := baselineReport(t, inputs)

	cfg := chaosTestConfig(t, inputs, 6)
	cfg.SpeculativeFactor = 1.2
	cfg.SpeculativeMin = 2
	cfg.Command = helperCommand(func(spec WorkerSpec) []string {
		if spec.Shard == 0 && spec.Attempt == 0 {
			return []string{"DRIVE_HANG=1"}
		}
		return nil
	})
	reg := obs.New()
	cfg.Obs = reg
	coord, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	res, err := coord.Run(ctx)
	if err != nil {
		t.Fatalf("speculation run: %v", err)
	}
	if res.SpeculativeLaunches < 1 || res.SpeculativeWins < 1 {
		t.Fatalf("speculation did not rescue the straggler: %+v", res)
	}
	if res.Done != 6 || res.Quarantined != 0 {
		t.Fatalf("outcome: %+v", res)
	}
	if !reflect.DeepEqual(want, res.Report) {
		t.Fatal("report after speculation differs from single-process report")
	}
	if got := reg.Counter("cellcars_drive_speculative_wins_total").Value(); got < 1 {
		t.Fatalf("speculative wins metric = %d, want >= 1", got)
	}
}

// TestCoordinatorTimeoutKillsHungWorker: a hung attempt is killed at
// the deadline, classified as timeout, and the retry completes the
// shard.
func TestCoordinatorTimeoutKillsHungWorker(t *testing.T) {
	inputs := writeChaosInputs(t, t.TempDir(), 10_000)

	cfg := chaosTestConfig(t, inputs, 2)
	// Generous enough that a healthy worker never trips it, even with
	// the race detector slowing everything down ~10x.
	cfg.AttemptTimeout = 5 * time.Second
	cfg.Command = helperCommand(func(spec WorkerSpec) []string {
		if spec.Shard == 1 && spec.Attempt == 0 {
			return []string{"DRIVE_HANG=1"}
		}
		return nil
	})
	reg := obs.New()
	cfg.Obs = reg
	coord, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := coord.Run(context.Background())
	if err != nil {
		t.Fatalf("timeout run: %v", err)
	}
	if res.Done != 2 || res.Retries != 1 {
		t.Fatalf("outcome: %+v", res)
	}
	if got := reg.Counter("cellcars_drive_attempts_total", obs.Label{Key: "outcome", Value: ClassTimeout}).Value(); got != 1 {
		t.Fatalf("timeout attempts metric = %d, want 1", got)
	}
}

// TestCoordinatorResume: the first run is cancelled after two shards
// complete; a second coordinator with -resume re-plans only the
// incomplete shards and the final report is bit-identical.
func TestCoordinatorResume(t *testing.T) {
	inputs := writeChaosInputs(t, t.TempDir(), 30_000)
	want := baselineReport(t, inputs)

	cfg := chaosTestConfig(t, inputs, 6)
	cfg.Parallel = 1 // sequential, so "cancel after N launches" is well-defined
	ctx, cancel := context.WithCancel(context.Background())
	launches := 0
	base := helperCommand(nil)
	cfg.Command = func(spec WorkerSpec) *exec.Cmd {
		launches++
		if launches == 3 {
			cancel() // shards 0 and 1 are done; stop before the third finishes
		}
		return base(spec)
	}
	coord, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("first run: want context.Canceled, got %v", err)
	}

	// Second coordinator, same workdir, resume mode.
	cfg2 := cfg
	cfg2.Parallel = 3
	cfg2.Resume = true
	cfg2.Command = base
	coord2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := coord2.Run(context.Background())
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if res.Done != 6 || res.Quarantined != 0 {
		t.Fatalf("resumed outcome: %+v", res)
	}
	// The resumed run must not redo the completed shards: at most the
	// 4 incomplete ones (the cancelled third shard may or may not have
	// finished before the kill landed).
	if res.Attempts > 4 {
		t.Fatalf("resumed run launched %d attempts; done shards were redone", res.Attempts)
	}
	if !reflect.DeepEqual(want, res.Report) {
		t.Fatal("resumed report differs from single-process report")
	}
}

// TestResumedDoneGaugeCountsReplayedShards: resuming a finished work
// directory launches nothing, and cellcars_drive_shards_done, read from
// a fresh registry, counts the shards the journal says are done — as
// /status does — not only those completed in this process.
func TestResumedDoneGaugeCountsReplayedShards(t *testing.T) {
	inputs := writeChaosInputs(t, t.TempDir(), 5_000)
	cfg := chaosTestConfig(t, inputs, 4)
	cfg.KeepPartials = true
	cfg.Command = helperCommand(nil)
	coord, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Run(context.Background()); err != nil {
		t.Fatalf("first run: %v", err)
	}

	reg := obs.New()
	cfg.Obs, cfg.Resume = reg, true
	cfg.Command = func(spec WorkerSpec) *exec.Cmd {
		t.Errorf("resumed run launched shard %d attempt %d", spec.Shard, spec.Attempt)
		return helperCommand(nil)(spec)
	}
	coord2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coord2.Run(context.Background()); err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	done := 0
	for _, s := range coord2.Status().Shards {
		if s.State == "done" {
			done++
		}
	}
	if got := reg.Gauge("cellcars_drive_shards_done").Value(); done != 4 || got != float64(done) {
		t.Fatalf("after resume: cellcars_drive_shards_done = %v, /status has %d of 4 shards done", got, done)
	}
}

// TestCoordinatorRefusesStaleJournal: a work directory holding a
// previous run's journal is refused without Resume.
func TestCoordinatorRefusesStaleJournal(t *testing.T) {
	inputs := writeChaosInputs(t, t.TempDir(), 5_000)
	cfg := chaosTestConfig(t, inputs, 2)
	cfg.Command = helperCommand(nil)
	coord, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Run(context.Background()); err != nil {
		t.Fatalf("first run: %v", err)
	}
	coord2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coord2.Run(context.Background()); err == nil || !strings.Contains(err.Error(), "journal") {
		t.Fatalf("second run without Resume: want journal-exists error, got %v", err)
	}
}
