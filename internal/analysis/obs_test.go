package analysis

import (
	"errors"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"
	"time"

	"cellcars/internal/cdr"
	"cellcars/internal/obs"
)

// TestEngineProfileConsistency runs the instrumented engine and checks
// that the per-stage profile, the registry counters and the report's
// own ingest totals all tell the same story, for both the sequential
// and the sharded path.
func TestEngineProfileConsistency(t *testing.T) {
	records := engineWorkload(20000)
	ctx := engineCtx()

	for _, workers := range []int{1, 2, 4} {
		reg := obs.New()
		opts := RunOptions{BusyCells: engineBusyCells(), Obs: reg, Workers: workers}
		rep, err := Run(records, ctx, opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if rep.ProfileWorkers != workers {
			t.Errorf("workers=%d: report says its profile sums %d workers", workers, rep.ProfileWorkers)
		}

		accepted := int64(rep.CleanRecords) - rep.OutOfPeriod
		ghosts := int64(rep.RawRecords - rep.CleanRecords)
		if accepted <= 0 || ghosts <= 0 || rep.OutOfPeriod <= 0 {
			t.Fatalf("workers=%d: workload did not exercise all outcomes: %+v", workers, rep)
		}

		// Profile rows: every stage that keeps state saw exactly the
		// accepted records, in batches; a derived stage saw none.
		if len(rep.Profile) == 0 {
			t.Fatalf("workers=%d: no pipeline profile", workers)
		}
		derived := 0
		for _, p := range rep.Profile {
			want := profiledRecords(p.Stage, accepted)
			if p.Records != want {
				t.Errorf("workers=%d: stage %s saw %d records, want %d",
					workers, p.Stage, p.Records, want)
			}
			if want > 0 && p.Batches <= 0 {
				t.Errorf("workers=%d: stage %s has no batches", workers, p.Stage)
			}
			if want == 0 {
				derived++
				if p.Batches != 0 || p.AddSeconds != 0 {
					t.Errorf("workers=%d: derived stage %s was fed %d batches in %g s", workers, p.Stage, p.Batches, p.AddSeconds)
				}
			}
			if p.AddSeconds < 0 || p.MergeSeconds < 0 || p.FinalizeSeconds < 0 {
				t.Errorf("workers=%d: stage %s has negative timing: %+v", workers, p.Stage, p)
			}
		}

		if derived != 3 {
			t.Errorf("workers=%d: %d derived stages in the profile, want days, segments and busy", workers, derived)
		}

		// Registry outcome counters reconcile with the report totals.
		outcome := func(v string) int64 {
			return reg.Counter("cellcars_engine_records_total",
				obs.Label{Key: "outcome", Value: v}).Value()
		}
		if got := outcome("accepted"); got != accepted {
			t.Errorf("workers=%d: accepted counter %d, want %d", workers, got, accepted)
		}
		if got := outcome("ghost"); got != ghosts {
			t.Errorf("workers=%d: ghost counter %d, want %d", workers, got, ghosts)
		}
		if got := outcome("out_of_period"); got != rep.OutOfPeriod {
			t.Errorf("workers=%d: out_of_period counter %d, want %d", workers, got, rep.OutOfPeriod)
		}

		// Shard balance counters sum to the raw stream length.
		var shardSum int64
		for w := 0; w < workers; w++ {
			shardSum += reg.Counter("cellcars_engine_shard_records_total",
				obs.Label{Key: "worker", Value: strconv.Itoa(w)}).Value()
		}
		if shardSum != int64(rep.RawRecords) {
			t.Errorf("workers=%d: shard counters sum %d, want %d raw records",
				workers, shardSum, rep.RawRecords)
		}

		// The stage record counters behind the profile agree with it.
		for _, p := range rep.Profile {
			c := reg.Counter("cellcars_stage_records_total",
				obs.Label{Key: "stage", Value: p.Stage}).Value()
			if c != p.Records {
				t.Errorf("workers=%d: stage %s counter %d != profile %d",
					workers, p.Stage, c, p.Records)
			}
		}
	}
}

// TestProfileStaysTrueAcrossWorkers: the stage Add series is shared by
// the workers, so the profile's AddSeconds are worker-seconds. They must
// be read as such: summed over every stage they fit inside workers × the
// run's elapsed time — each worker times disjoint stretches of it — and
// the rate derived from them (records per WallSeconds, the table's
// rec/s) must not fall because a worker was added, which it did, by
// half, while the sum was read as wall time. The rate is the best of
// five runs per worker count and is held to three quarters of the
// single worker's: a shared box can slow a run — one of a few
// milliseconds, now that a record costs well under a microsecond — it
// cannot halve the rate at every worker count five times over.
func TestProfileStaysTrueAcrossWorkers(t *testing.T) {
	records := engineWorkload(20000)
	ctx := engineCtx()
	var single float64
	for _, workers := range []int{1, 2, 4} {
		var best float64
		for run := 0; run < 5; run++ {
			opts := RunOptions{BusyCells: engineBusyCells(), Obs: obs.New(), Workers: workers}
			start := time.Now()
			rep, err := Run(records, ctx, opts)
			wall := time.Since(start).Seconds()
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			var add, share float64
			for _, p := range rep.Profile {
				add += p.AddSeconds
				share += p.WallSeconds(rep.ProfileWorkers)
			}
			if add > float64(workers)*wall {
				t.Errorf("workers=%d: stages sum %.4f s of Add inside %d × %.4f s of run", workers, add, workers, wall)
			}
			if share > wall {
				t.Errorf("workers=%d: stages account for %.4f s of a %.4f s run", workers, share, wall)
			}
			accepted := float64(int64(rep.CleanRecords) - rep.OutOfPeriod)
			best = max(best, accepted/share)
		}
		if workers == 1 {
			single = best
		} else if best < 0.75*single {
			t.Errorf("workers=%d: %.0f rec/s by the profile against %.0f with one worker", workers, best, single)
		}
	}
}

// profiledRecords is what a stage's profile row counts of a run that
// accepted the records given: all of them for a stage that keeps state,
// none for one derived from another stage's facts.
func profiledRecords(stage string, accepted int64) int64 {
	for _, st := range stageTable {
		if st.name == stage && st.over != nil {
			return 0
		}
	}
	return accepted
}

func withObs(o RunOptions, reg *obs.Registry) RunOptions {
	o.Obs = reg
	return o
}

// TestResumedRunProfileReconciles pins the creditRestored semantics: a
// run resumed from a checkpoint in a fresh process (fresh registry)
// still reports whole-logical-run record counts in its profile and
// outcome counters, so the "Pipeline profile" reconciliation with the
// Data Quality totals survives a crash/resume cycle. A derived stage
// counts no records, restored or read.
func TestResumedRunProfileReconciles(t *testing.T) {
	records := engineWorkload(20000)
	ctx := engineCtx()
	base := RunOptions{BusyCells: engineBusyCells()}

	path := filepath.Join(t.TempDir(), "engine.snap")
	kills := CheckpointConfig{Path: path, Every: 2000}
	_, err := NewEngine(ctx, EngineOptions{RunOptions: withObs(base, obs.New()), Workers: 4}).
		RunReaderCheckpointed(&faultReader{r: cdr.NewSliceReader(records), n: 7500, err: errKilled}, kills)
	if !errors.Is(err, errKilled) {
		t.Fatalf("want simulated crash, got %v", err)
	}

	// Resume in a "new process": a fresh registry with no history.
	reg := obs.New()
	rep, err := NewEngine(ctx, EngineOptions{RunOptions: withObs(base, reg), Workers: 4}).
		RunReaderCheckpointed(cdr.NewSliceReader(records), CheckpointConfig{Path: path, Resume: true})
	if err != nil {
		t.Fatal(err)
	}

	accepted := int64(rep.CleanRecords) - rep.OutOfPeriod
	for _, p := range rep.Profile {
		if want := profiledRecords(p.Stage, accepted); p.Records != want {
			t.Errorf("stage %s saw %d records after resume, want %d", p.Stage, p.Records, want)
		}
	}
	if got := reg.Counter("cellcars_engine_records_total",
		obs.Label{Key: "outcome", Value: "accepted"}).Value(); got != accepted {
		t.Errorf("accepted counter %d after resume, want %d", got, accepted)
	}
	if got := reg.Counter("cellcars_engine_records_total",
		obs.Label{Key: "outcome", Value: "ghost"}).Value(); got != int64(rep.RawRecords-rep.CleanRecords) {
		t.Errorf("ghost counter %d after resume, want %d", got, rep.RawRecords-rep.CleanRecords)
	}
}

// TestEngineObsDoesNotChangeResults pins the zero-interference
// guarantee: the instrumented report, profile aside, is bit-identical
// to the uninstrumented one.
func TestEngineObsDoesNotChangeResults(t *testing.T) {
	records := engineWorkload(8000)
	ctx := engineCtx()

	base, err := Run(records, ctx, RunOptions{BusyCells: engineBusyCells(), Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := Run(records, ctx, RunOptions{BusyCells: engineBusyCells(), Workers: 4, Obs: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	if len(inst.Profile) == 0 {
		t.Fatal("instrumented run produced no profile")
	}
	inst.Profile, inst.ProfileWorkers = nil, 0
	if !reflect.DeepEqual(base, inst) {
		t.Fatal("instrumentation changed the analysis results")
	}
}
