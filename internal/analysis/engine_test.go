package analysis

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"cellcars/internal/cdr"
	"cellcars/internal/clean"
	"cellcars/internal/radio"
	"cellcars/internal/simtime"
	"cellcars/internal/stats"
	"cellcars/internal/synth"
)

// engineWorkload generates a deterministic raw workload that exercises
// every stage and both ingest filters: many cars across many cells and
// carriers, ghost records, and records outside the study period.
func engineWorkload(n int) []cdr.Record {
	rng := rand.New(rand.NewPCG(42, 1))
	records := make([]cdr.Record, 0, n)
	for i := 0; i < n; i++ {
		car := cdr.CarID(rng.Uint64N(400))
		bs := radio.BSID(rng.Uint64N(120))
		sector := radio.SectorID(rng.Uint64N(3))
		carrier := radio.C1 + radio.CarrierID(rng.Uint64N(uint64(radio.NumCarriers)))
		start := time.Duration(rng.Uint64N(14*24*3600)) * time.Second
		dur := time.Duration(5+rng.Uint64N(1200)) * time.Second
		switch i % 97 {
		case 13: // ghost
			dur = clean.GhostDuration
		case 29: // before the period
			start = -time.Duration(1+rng.Uint64N(48*3600)) * time.Second
		case 71: // after the period
			start = time.Duration(14*24*3600+rng.Uint64N(48*3600)) * time.Second
		}
		records = append(records, cdr.Record{
			Car:      car,
			Cell:     radio.MakeCellKey(bs, sector, carrier),
			Start:    t0.Add(start),
			Duration: dur,
		})
	}
	// Keep per-car time order (required by the sessionizing stages):
	// sort by start, stable to preserve generation order on ties.
	sort.SliceStable(records, func(i, j int) bool {
		return records[i].Start.Before(records[j].Start)
	})
	return records
}

func engineCtx() Context {
	return Context{
		Period: simtime.NewPeriod(t0, 14),
		Load: &fixedLoad{busy: map[radio.CellKey]bool{
			radio.MakeCellKey(3, 0, radio.C1): true,
			radio.MakeCellKey(3, 1, radio.C2): true,
			radio.MakeCellKey(7, 0, radio.C3): true,
		}},
		TZOffsetSeconds: -5 * 3600,
	}
}

func engineBusyCells() []radio.CellKey {
	return []radio.CellKey{
		radio.MakeCellKey(3, 0, radio.C1),
		radio.MakeCellKey(3, 1, radio.C2),
		radio.MakeCellKey(7, 0, radio.C3),
		radio.MakeCellKey(11, 0, radio.C4),
	}
}

// TestEngineWorkerCountEquivalence is the core determinism guarantee:
// the full report is bit-identical for any worker count.
func TestEngineWorkerCountEquivalence(t *testing.T) {
	records := engineWorkload(40000)
	ctx := engineCtx()
	opts := RunOptions{BusyCells: engineBusyCells()}

	var reports []*Report
	for _, workers := range []int{1, 3, 8} {
		e := NewEngine(ctx, EngineOptions{RunOptions: opts, Workers: workers})
		rep, err := e.Run(records)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(rep.StageErrors) != 0 {
			t.Fatalf("workers=%d: stage errors %+v", workers, rep.StageErrors)
		}
		reports = append(reports, rep)
	}
	for i := 1; i < len(reports); i++ {
		if !reflect.DeepEqual(reports[0], reports[i]) {
			t.Fatalf("report for worker count %d differs from workers=1", []int{1, 3, 8}[i])
		}
	}

	// Sanity: the workload exercised every filter and stage.
	rep := reports[0]
	if rep.OutOfPeriod == 0 || rep.RawRecords == rep.CleanRecords {
		t.Fatalf("workload did not exercise filters: %+v", rep)
	}
	if rep.Presence.TotalCars == 0 || rep.Handovers.Sessions == 0 ||
		len(rep.Segments) != 2 || len(rep.Clusters.Sizes) != 2 || rep.UsageSessions == 0 {
		t.Fatal("workload did not exercise every stage")
	}
	if rep.Durations.Median <= 0 {
		t.Fatal("no duration median")
	}
}

// pushReference is the independent reference the dispatcher is checked
// against: one accumulator set fed record by record on the calling
// goroutine (the Streaming push path) and finalized — no sharding, no
// channels, no merge.
func pushReference(ctx Context, opts RunOptions, records []cdr.Record) *Report {
	s := NewStreamingWithOptions(ctx, opts)
	for _, r := range records {
		s.Add(r)
	}
	return s.set.finalize()
}

// TestEngineMatchesPushReference: Run, RunReader and
// RunReaderCheckpointed are one dispatcher, so comparing them with
// each other proves nothing; each is compared with the push path, for
// every worker count — named, or left to the machine under one, two and
// five procs — and checkpoint cadence (none, trigger-only, a cut after
// every record, a cut every few batches). On one proc an auto engine is
// the one-worker engine: its last cut is the one-worker run's, byte for
// byte.
func TestEngineMatchesPushReference(t *testing.T) {
	ctx := engineCtx()
	opts := RunOptions{BusyCells: engineBusyCells()}
	records := engineWorkload(9000)
	// A cut per record is a barrier and an fsync per record: keep that
	// case short.
	short := records[:300]
	want := pushReference(ctx, opts, records)
	wantShort := pushReference(ctx, opts, short)

	oneWorkerCut := map[int64][]byte{} // by cadence
	for _, row := range []struct{ workers, procs int }{
		{workers: 1}, {workers: 2}, {workers: 4}, {workers: 7},
		{procs: 1}, {procs: 2}, {procs: 5},
	} {
		func() {
			workers, name := row.workers, fmt.Sprintf("workers=%d", row.workers)
			if row.procs > 0 {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(row.procs))
				name = fmt.Sprintf("workers=auto procs=%d", row.procs)
			}
			e := NewEngine(ctx, EngineOptions{RunOptions: opts, Workers: workers})
			check := func(entry string, want, got *Report, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s %s: %v", name, entry, err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Errorf("%s %s: report differs from the push-path reference", name, entry)
				}
			}
			got, err := e.Run(records)
			check("Run", want, got, err)
			got, err = e.RunReader(cdr.NewSliceReader(records))
			check("RunReader", want, got, err)
			for _, every := range []int64{0, 1, 4096} {
				in, ref := records, want
				if every == 1 {
					in, ref = short, wantShort
				}
				cfg := CheckpointConfig{Path: filepath.Join(t.TempDir(), "ckpt.snap"), Every: every}
				got, err = e.RunReaderCheckpointed(cdr.NewSliceReader(in), cfg)
				check(fmt.Sprintf("RunReaderCheckpointed(every=%d)", every), ref, got, err)
				if every == 0 {
					continue // no trigger, no cut
				}
				cut, err := os.ReadFile(cfg.Path)
				if err != nil {
					t.Fatal(err)
				}
				switch {
				case row.workers == 1:
					oneWorkerCut[every] = cut
				case row.procs == 1 && !bytes.Equal(cut, oneWorkerCut[every]):
					t.Errorf("%s every=%d: the cut differs from the one-worker run's", name, every)
				}
			}
		}()
	}
}

// TestResumeAdoptsCheckpointWorkers: records are sharded by worker
// count, so a checkpoint continues only under the count it was cut with.
// An auto engine takes that count from the checkpoint, whatever the
// machine it resumes on — the final report is the uninterrupted run's
// and the file still says three workers — and an explicit count that
// differs is refused, naming both.
func TestResumeAdoptsCheckpointWorkers(t *testing.T) {
	records := engineWorkload(20000)
	ctx := engineCtx()
	opts := RunOptions{BusyCells: engineBusyCells()}
	want := pushReference(ctx, opts, records)

	cut := filepath.Join(t.TempDir(), "three.snap")
	_, err := NewEngine(ctx, EngineOptions{RunOptions: opts, Workers: 3}).RunReaderCheckpointed(
		&faultReader{r: cdr.NewSliceReader(records), n: 7777, err: errKilled}, CheckpointConfig{Path: cut, Every: 2500})
	if !errors.Is(err, errKilled) {
		t.Fatalf("want simulated crash, got %v", err)
	}
	midStream, err := os.ReadFile(cut)
	if err != nil {
		t.Fatal(err)
	}

	for _, procs := range []int{1, 8} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			path := filepath.Join(t.TempDir(), "resumed.snap")
			if err := os.WriteFile(path, midStream, 0o644); err != nil {
				t.Fatal(err)
			}
			got, err := NewEngine(ctx, EngineOptions{RunOptions: opts}).RunReaderCheckpointed(
				cdr.NewSliceReader(records), CheckpointConfig{Path: path, Every: 2500, Resume: true})
			if err != nil {
				t.Fatalf("procs=%d: resume: %v", procs, err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("procs=%d: resumed report differs from the uninterrupted run's", procs)
			}
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			hdr, sets, err := restoreSets(f, ctx, EngineOptions{RunOptions: opts.withDefaults()})
			if err != nil {
				t.Fatal(err)
			}
			if hdr.Workers != 3 || len(sets) != 3 || hdr.Watermark != int64(len(records)) {
				t.Errorf("procs=%d: the resumed run's last cut holds %d sets (header says %d) at watermark %d, want 3 at %d",
					procs, len(sets), hdr.Workers, hdr.Watermark, len(records))
			}
		}()
	}

	_, err = NewEngine(ctx, EngineOptions{RunOptions: opts, Workers: 2}).RunReaderCheckpointed(
		cdr.NewSliceReader(records), CheckpointConfig{Path: cut, Resume: true})
	if err == nil || !strings.Contains(err.Error(), "checkpoint has 3 workers, run has 2") {
		t.Fatalf("resume under an explicit other worker count: %v", err)
	}
}

// TestEngineReaderErrorStopsWorkers: a source failing mid-stream is
// the run's error, and the dispatcher has stopped and waited for every
// worker goroutine by the time it returns it.
func TestEngineReaderErrorStopsWorkers(t *testing.T) {
	records := engineWorkload(8000)
	before := runtime.NumGoroutine()
	rep, err := NewEngine(engineCtx(), EngineOptions{Workers: 4}).
		RunReader(&faultReader{r: cdr.NewSliceReader(records), n: 5000, err: errKilled})
	if !errors.Is(err, errKilled) || rep != nil {
		t.Fatalf("want the source error and no report, got %v, %v", rep, err)
	}
	// wg.Wait has seen every worker's deferred Done; give the runtime a
	// moment to retire the goroutines themselves.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before the run, %d after: workers leaked", before, runtime.NumGoroutine())
		}
		runtime.Gosched()
	}
}

// TestEngineEmptySource: an empty source finalizes the zero report —
// what the push path finalizes with nothing added.
func TestEngineEmptySource(t *testing.T) {
	ctx := engineCtx()
	for _, workers := range []int{1, 4} {
		got, err := NewEngine(ctx, EngineOptions{Workers: workers}).RunReader(cdr.NewSliceReader(nil))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got.RawRecords != 0 || got.Presence.TotalCars != 0 {
			t.Fatalf("workers=%d: empty source produced %+v", workers, got)
		}
		if !reflect.DeepEqual(pushReference(ctx, RunOptions{}, nil), got) {
			t.Fatalf("workers=%d: empty-source report differs from the push-path reference", workers)
		}
	}
}

// cdfPoints is what CDF.Points(n) returns for a sorted sample, counted
// off the slice.
func cdfPoints(sorted []float64, n int) (xs, ps []float64) {
	lo, hi := sorted[0], sorted[len(sorted)-1]
	for i := 0; i < n; i++ {
		x := lo + (hi-lo)*float64(i)/float64(n-1)
		atOrBelow := sort.Search(len(sorted), func(j int) bool { return sorted[j] > x })
		xs = append(xs, x)
		ps = append(ps, float64(atOrBelow)/float64(len(sorted)))
	}
	return xs, ps
}

// durationsOracle is Figure 9 computed the naive way: the accepted
// (ghost-free, in-period) population's durations, truncated at 600 s to
// whole seconds, sorted, with stats.Quantile over the slice and the
// CDF's 72 plot points counted off it.
type durationsOracle struct {
	median, p73 float64
	xs, ps      []float64
}

func newDurationsOracle(ctx Context, records []cdr.Record) durationsOracle {
	var sorted []float64
	for _, r := range cleanAccepted(ctx, records) {
		sorted = append(sorted, float64(min(r.Duration, clean.TruncateLimit)/time.Second))
	}
	sort.Float64s(sorted)
	o := durationsOracle{median: stats.Quantile(sorted, 0.5), p73: stats.Quantile(sorted, 0.73)}
	o.xs, o.ps = cdfPoints(sorted, 72)
	return o
}

func (o durationsOracle) check(t *testing.T, how string, d CellDurations) {
	t.Helper()
	xs, ps := d.Truncated.Points(72)
	if d.Median != o.median || d.P73 != o.p73 || !slices.Equal(xs, o.xs) || !slices.Equal(ps, o.ps) {
		t.Fatalf("%s: median %v, p73 %v; the sorted population gives %v, %v (or the CDF's points differ)",
			how, d.Median, d.P73, o.median, o.p73)
	}
}

// handoversOracle is §4.5 computed the naive way: each car's accepted
// records sorted by start with durations capped at 600 s, split into
// mobility sessions wherever a record starts more than 10 min after the
// latest end so far, and every change of cell between consecutive
// records of a session classified by its kind.
type handoversOracle struct {
	sessions         int
	median, p70, p90 float64
	byKind           map[radio.HandoverKind]int64
	xs, ps           []float64
}

func newHandoversOracle(ctx Context, records []cdr.Record) handoversOracle {
	byCar := make(map[cdr.CarID][]cdr.Record)
	for _, r := range cleanAccepted(ctx, records) {
		byCar[r.Car] = append(byCar[r.Car], r)
	}
	o := handoversOracle{byKind: make(map[radio.HandoverKind]int64)}
	var perSession []float64
	for _, recs := range byCar {
		sort.SliceStable(recs, func(i, j int) bool { return recs[i].Start.Before(recs[j].Start) })
		end := func(r cdr.Record) time.Time { return r.Start.Add(min(r.Duration, clean.TruncateLimit)) }
		n, latest := 0, end(recs[0])
		for i := 1; i < len(recs); i++ {
			if recs[i].Start.Sub(latest) > clean.MobilityGap {
				perSession = append(perSession, float64(n))
				n, latest = 0, end(recs[i])
				continue
			}
			if kind := radio.ClassifyHandover(recs[i-1].Cell, recs[i].Cell); kind != radio.HandoverNone {
				o.byKind[kind]++
				n++
			}
			if e := end(recs[i]); e.After(latest) {
				latest = e
			}
		}
		perSession = append(perSession, float64(n))
	}
	sort.Float64s(perSession)
	o.sessions = len(perSession)
	o.median, o.p70, o.p90 = stats.Quantile(perSession, 0.5), stats.Quantile(perSession, 0.7), stats.Quantile(perSession, 0.9)
	o.xs, o.ps = cdfPoints(perSession, 72)
	return o
}

func (o handoversOracle) check(t *testing.T, how string, h HandoverStats) {
	t.Helper()
	xs, ps := h.PerSession.Points(72)
	if h.Sessions != o.sessions || h.Median != o.median || h.P70 != o.p70 || h.P90 != o.p90 {
		t.Fatalf("%s: %d sessions, median %v, p70 %v, p90 %v; the sorted records give %d, %v, %v, %v",
			how, h.Sessions, h.Median, h.P70, h.P90, o.sessions, o.median, o.p70, o.p90)
	}
	if !reflect.DeepEqual(h.ByKind, o.byKind) || !slices.Equal(xs, o.xs) || !slices.Equal(ps, o.ps) {
		t.Fatalf("%s: handovers by kind %v, the sorted records give %v (or the CDF's points differ)", how, h.ByKind, o.byKind)
	}
}

// eachSplit hands check the report of every way the engine splits a
// population and puts it back together: engine workers 1–4, three runs
// killed after a cut and each resuming the last, and eight car-disjoint
// partials merged in ten random orders.
func eachSplit(t *testing.T, ctx Context, records []cdr.Record, check func(how string, rep *Report)) {
	t.Helper()
	for workers := 1; workers <= 4; workers++ {
		rep, err := NewEngine(ctx, EngineOptions{Workers: workers}).Run(records)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("Engine.Run workers=%d", workers), rep)
	}

	n := len(records)
	eopts := EngineOptions{Workers: 2}
	cfg := CheckpointConfig{Path: filepath.Join(t.TempDir(), "engine.snap"), Every: int64(n / 5)}
	for i, kill := range []int{n / 4, n / 2, 3 * n / 4} {
		cfg.Resume = i > 0
		_, err := NewEngine(ctx, eopts).RunReaderCheckpointed(
			&faultReader{r: cdr.NewSliceReader(records), n: kill, err: errKilled}, cfg)
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

	var snaps [][]byte
	for _, shard := range shardByFilter(t, records, 8) {
		s := NewStreamingWithOptions(ctx, RunOptions{})
		if err := s.AddAll(cdr.NewSliceReader(shard)); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := s.SnapshotTo(&buf); err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, buf.Bytes())
	}
	rng := rand.New(rand.NewPCG(uint64(n), 8))
	for order := 0; order < 10; order++ {
		var root *Partial
		for _, i := range rng.Perm(len(snaps)) {
			p, err := ReadPartial(bytes.NewReader(snaps[i]))
			if err != nil {
				t.Fatal(err)
			}
			if root == nil {
				root = p
			} else if err := root.Merge(p, false); err != nil {
				t.Fatal(err)
			}
		}
		check(fmt.Sprintf("Partial.Merge order %d", order), root.Finalize())
	}
}

// TestEngineDurationsExact: Figure 9's median, p73 and CDF equal the
// naive oracle's, float for float, however the population was split and
// put back together — every eachSplit way and an ordered fold of hourly
// buckets — on a fleet under 32 768 accepted records and one over it.
func TestEngineDurationsExact(t *testing.T) {
	ctx := engineCtx()
	for _, n := range []int{5000, 40000} {
		records := engineWorkload(n)
		accepted := len(cleanAccepted(ctx, records))
		t.Run(fmt.Sprintf("accepted=%d", accepted), func(t *testing.T) {
			oracle := newDurationsOracle(ctx, records)
			eachSplit(t, ctx, records, func(how string, rep *Report) { oracle.check(t, how, rep.Durations) })

			// Hourly TrackHeads buckets, each through its snapshot, folded
			// in time order as a query window is.
			tracked := RunOptions{TrackHeads: true}
			var fold *Streaming
			for lo := 0; lo < len(records); {
				hour := records[lo].Start.Truncate(time.Hour)
				hi := lo
				for hi < len(records) && records[hi].Start.Truncate(time.Hour).Equal(hour) {
					hi++
				}
				s := NewStreamingWithOptions(ctx, tracked)
				if err := s.AddAll(cdr.NewSliceReader(records[lo:hi])); err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := s.SnapshotTo(&buf); err != nil {
					t.Fatal(err)
				}
				bucket, err := RestoreStreaming(ctx, tracked, &buf)
				if err != nil {
					t.Fatal(err)
				}
				if fold == nil {
					fold = bucket
				} else if err := fold.MergeOrdered(bucket); err != nil {
					t.Fatal(err)
				}
				lo = hi
			}
			oracle.check(t, "MergeOrdered fold of hourly buckets", fold.set.finalize().Durations)
		})
	}
}

// TestEngineHandoversExact: §4.5's session count, median, p70, p90,
// handovers by kind and per-session CDF equal the naive oracle's, float
// for float, every eachSplit way, on a generated fleet of over 32 768
// accepted records whose cars drive through cells as the paper's do.
func TestEngineHandoversExact(t *testing.T) {
	cfg := synth.DefaultConfig(200)
	cfg.Period = simtime.NewPeriod(t0, 14)
	records, _ := synth.NewWorld(cfg).GenerateAll()
	ctx := Context{Period: cfg.Period}
	if accepted := len(cleanAccepted(ctx, records)); accepted <= 32768 {
		t.Fatalf("the fleet has %d accepted records, want over 32 768", accepted)
	}
	oracle := newHandoversOracle(ctx, records)
	if oracle.median == 0 || oracle.p90 <= oracle.median || len(oracle.byKind) < 2 {
		t.Fatalf("the fleet shows too few handovers to check: %d sessions, median %v, p90 %v, kinds %v",
			oracle.sessions, oracle.median, oracle.p90, oracle.byKind)
	}
	t.Logf("%d sessions: median %v, p70 %v, p90 %v; by kind %v", oracle.sessions, oracle.median, oracle.p70, oracle.p90, oracle.byKind)
	eachSplit(t, ctx, records, func(how string, rep *Report) { oracle.check(t, how, rep.Handovers) })
}

// TestEngineFailStageAcrossWorkers: chaos injection must drop exactly
// the named stage in every worker and leave independent stages —
// notably segments, which reads presence's busy split as busy does —
// intact.
func TestEngineFailStageAcrossWorkers(t *testing.T) {
	records := engineWorkload(4000)
	ctx := engineCtx()
	e := NewEngine(ctx, EngineOptions{RunOptions: RunOptions{FailStage: "busy"}, Workers: 8})
	rep, err := e.Run(records)
	if err != nil {
		t.Fatal(err)
	}
	if fail := rep.Failed("busy"); fail == nil {
		t.Fatalf("injected failure not recorded: %+v", rep.StageErrors)
	}
	if len(rep.StageErrors) != 1 {
		t.Fatalf("extra failures: %+v", rep.StageErrors)
	}
	if len(rep.Busy.FracByCar) != 0 {
		t.Fatal("failed stage still produced output")
	}
	if len(rep.Segments) != 2 || rep.Segments[0].RareTotal()+rep.Segments[0].CommonTotal() < 0.99 {
		t.Fatalf("segments must survive a busy-stage failure: %+v", rep.Segments)
	}
	if rep.Presence.TotalCars == 0 {
		t.Fatal("presence lost")
	}
}

// TestEngineOutOfPeriodPolicy is the regression test for the unified
// record-handling policy: a record outside the study period appears in
// no analysis — not even the period-less ones like Table 3 — and is
// counted in OutOfPeriod. Historically batch and streaming diverged
// here.
func TestEngineOutOfPeriodPolicy(t *testing.T) {
	period := simtime.NewPeriod(t0, 7)
	ctx := Context{Period: period}
	in := rec(1, cell(1), 24*time.Hour, 100*time.Second)
	before := rec(2, cell(2), -48*time.Hour, 100*time.Second)
	after := rec(3, cell(3), 9*24*time.Hour, 100*time.Second)

	for _, workers := range []int{1, 4} {
		rep, err := NewEngine(ctx, EngineOptions{Workers: workers}).Run([]cdr.Record{before, in, after})
		if err != nil {
			t.Fatal(err)
		}
		if rep.OutOfPeriod != 2 {
			t.Fatalf("workers=%d: OutOfPeriod = %d, want 2", workers, rep.OutOfPeriod)
		}
		if rep.Presence.TotalCars != 1 {
			t.Fatalf("workers=%d: presence sees %d cars", workers, rep.Presence.TotalCars)
		}
		if rep.Carriers.TotalCars != 1 {
			t.Fatalf("workers=%d: carriers see %d cars, want out-of-period cars excluded", workers, rep.Carriers.TotalCars)
		}
		if got := rep.Connected.Full.N(); got != 1 {
			t.Fatalf("workers=%d: connected CDF over %d cars", workers, got)
		}
		if rep.CleanRecords != 3 {
			t.Fatalf("workers=%d: clean records = %d", workers, rep.CleanRecords)
		}
	}

	// Streaming applies the identical policy.
	s := NewStreamingWithOptions(Context{Period: period}, RunOptions{})
	s.Add(before)
	s.Add(in)
	s.Add(after)
	srep := s.Finalize()
	if srep.OutOfPeriod != 2 || srep.Carriers.TotalCars != 1 {
		t.Fatalf("streaming policy differs: out=%d cars=%d", srep.OutOfPeriod, srep.Carriers.TotalCars)
	}
}

// TestStreamingWithContextCoversLoadStages: the streaming adapter now
// covers Table 2 and Figure 7 when given a load source, matching the
// batch pipeline exactly.
func TestStreamingWithContextCoversLoadStages(t *testing.T) {
	records := engineWorkload(4000)
	ctx := engineCtx()

	s := NewStreamingWithOptions(ctx, RunOptions{})
	if err := s.AddAll(cdr.NewSliceReader(records)); err != nil {
		t.Fatal(err)
	}
	srep := s.Finalize()

	rep, err := NewEngine(ctx, EngineOptions{}).Run(records)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(srep.Busy, rep.Busy) {
		t.Fatal("streaming busy time differs from batch")
	}
	if !reflect.DeepEqual(srep.Segments, rep.Segments) {
		t.Fatal("streaming segmentation differs from batch")
	}
	if !reflect.DeepEqual(srep.Handovers, rep.Handovers) {
		t.Fatal("streaming handovers differ from batch")
	}
	if !reflect.DeepEqual(srep.FleetUsage, rep.FleetUsage) {
		t.Fatal("streaming fleet usage differs from batch")
	}
}
