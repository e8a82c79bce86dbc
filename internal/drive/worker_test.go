package drive

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"cellcars/internal/analysis"
	"cellcars/internal/cdr"
	"cellcars/internal/obs"
)

// writeFaultyInputs turns writeChaosInputs' two binary files into a CSV
// with the benchmark's three faults planted every step rows — junk in
// the cell, a missing column, a start twenty years out — followed by a
// binary file whose last frame is torn.
func writeFaultyInputs(t *testing.T, dir string, n, step int) []string {
	t.Helper()
	bins := writeChaosInputs(t, dir, n)
	r, closer, err := cdr.OpenFiles(bins[0])
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	records, err := cdr.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := cdr.NewCSVWriter(&buf)
	if err := cdr.WriteAll(w, records); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(buf.Bytes(), []byte("\n"))
	for i := step; i < len(lines)-1; i += step {
		switch (i / step) % 3 {
		case 0:
			lines[i] = bytes.Replace(lines[i], []byte(","), []byte(",x"), 1)
		case 1:
			lines[i] = append(bytes.Clone(lines[i][:bytes.LastIndexByte(lines[i], ',')]), '\n')
		default:
			f := bytes.Split(lines[i], []byte(","))
			f[2] = []byte("2114035200")
			lines[i] = bytes.Join(f, []byte(","))
		}
	}
	faulty := filepath.Join(dir, "faulty.csv")
	if err := os.WriteFile(faulty, bytes.Join(lines, nil), 0o644); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(bins[1])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(bins[1], fi.Size()-11); err != nil {
		t.Fatal(err)
	}
	return []string{faulty, bins[1]}
}

// TestShardWorkersMatchFilter: a worker that reads only the rows its
// shard owns writes, byte for byte, the partial of the pipeline it
// replaced — FilterFunc by ShardOfCar over a ResilientReader over every
// row — and what the eight workers report adds up: records read and
// quarantine counts by class to the single reader's, and per worker
// rows == skipped + read + quarantined, on DRIVE_STATS and on /metrics.
func TestShardWorkersMatchFilter(t *testing.T) {
	const shards = 8
	dir := t.TempDir()
	inputs := writeFaultyInputs(t, dir, 24_000, 61)
	period := chaosTestPeriod()
	ingest := func(reg *obs.Registry) cdr.ResilientConfig {
		return cdr.ResilientConfig{
			MaxBadFrac: -1,
			MinStart:   period.Start().AddDate(0, 0, -7),
			MaxStart:   period.End().AddDate(0, 0, 7),
			Obs:        reg,
		}
	}

	var single cdr.IngestStats
	sum := WorkerStats{ByClass: map[string]int64{}}
	for s := 0; s < shards; s++ {
		s := s
		files, closer, err := cdr.OpenFiles(inputs...)
		if err != nil {
			t.Fatal(err)
		}
		rr := cdr.NewResilientReader(files, ingest(nil))
		acc := analysis.NewStreamingWithOptions(chaosTestCtx(), chaosTestOpts())
		if err := acc.AddAll(cdr.FilterFunc(rr, func(rec cdr.Record) bool { return cdr.ShardOfCar(rec.Car, shards) == s })); err != nil {
			t.Fatal(err)
		}
		closer.Close()
		ref := filepath.Join(dir, "ref.snap")
		if err := acc.WriteSnapshot(ref); err != nil {
			t.Fatal(err)
		}
		single = rr.Stats()

		reg := obs.New()
		out := filepath.Join(dir, "out.snap")
		st, err := RunWorker(WorkerConfig{
			Inputs: inputs, Shard: s, Shards: shards, Out: out,
			Ctx: chaosTestCtx(), Opts: chaosTestOpts(), Ingest: ingest(reg),
		})
		if err != nil {
			t.Fatalf("shard %d: %v", s, err)
		}
		want, err := os.ReadFile(ref)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("shard %d: the worker's partial (%d bytes) differs from the filter pipeline's (%d bytes)", s, len(got), len(want))
		}
		if st.Rows != single.Attempted() || st.Rows != st.Skipped+st.Records+st.Quarantined {
			t.Fatalf("shard %d: %+v over an input of %d rows: want rows == skipped + read + quarantined", s, st, single.Attempted())
		}
		if got := reg.Counter("cellcars_ingest_rows_skipped_total").Value(); got != st.Skipped {
			t.Fatalf("shard %d: skipped-rows metric %d, DRIVE_STATS says %d", s, got, st.Skipped)
		}
		if got := reg.Counter("cellcars_ingest_records_total").Value(); got != st.Records {
			t.Fatalf("shard %d: records metric %d, DRIVE_STATS says %d", s, got, st.Records)
		}
		sum.Records += st.Records
		sum.Quarantined += st.Quarantined
		for class, n := range st.ByClass {
			sum.ByClass[class] += n
		}
	}
	if single.Quarantined[cdr.ClassBadField] == 0 || single.Quarantined[cdr.ClassTimeRange] == 0 || single.Quarantined[cdr.ClassTruncated] != 1 {
		t.Fatalf("fixture quarantines %v: want bad fields, time ranges and one torn tail", single.Quarantined)
	}
	if sum.Records != single.Read || sum.Quarantined != single.QuarantinedTotal() || !reflect.DeepEqual(sum.ByClass, single.ByClass()) {
		t.Fatalf("the workers add up to %+v; the single reader read %d and quarantined %v", sum, single.Read, single.ByClass())
	}
}

// TestDoneEventCarriesClassCounts: the by-class counts a worker reports
// reach the Result through the journal's done event alone, so a resumed
// run reports what the first one would have.
func TestDoneEventCarriesClassCounts(t *testing.T) {
	c := newLedger(t, 2, 3)
	jr, err := openJournal(c.cfg.JournalPath)
	if err != nil {
		t.Fatal(err)
	}
	c.jr = jr
	for i, st := range []WorkerStats{
		{Records: 10, Quarantined: 3, ByClass: map[string]int64{"bad-field": 2, "time-range": 1}, Rows: 40, Skipped: 27},
		{Records: 20, Quarantined: 1, ByClass: map[string]int64{"bad-field": 1}, Rows: 40, Skipped: 19},
	} {
		a := launched(t, c, c.shards[i], chaosTestPeriod().Start())
		if err := c.done(c.shards[i], a, st); err != nil {
			t.Fatal(err)
		}
	}
	jr.f.Close()

	events, err := readJournal(c.cfg.JournalPath)
	if err != nil {
		t.Fatal(err)
	}
	replayed := freshLedger(2)
	applyEvents(replayed, events)
	// Any partial will do for finishResult to finalize.
	snap := filepath.Join(t.TempDir(), "any.snap")
	if _, err := RunWorker(WorkerConfig{
		Inputs: writeChaosInputs(t, t.TempDir(), 200), Shards: 1, Out: snap,
		Ctx: chaosTestCtx(), Opts: chaosTestOpts(),
	}); err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"bad-field": 3, "time-range": 1}
	for name, shards := range map[string][]*shardRun{"live": c.shards, "replayed": replayed} {
		p, err := analysis.ReadPartialFile(snap)
		if err != nil {
			t.Fatal(err)
		}
		c.shards, c.res = shards, Result{}
		c.finishResult(p, chaosTestPeriod().Start())
		if c.res.Records != 30 || c.res.IngestQuarantined != 4 || !reflect.DeepEqual(c.res.IngestByClass, want) {
			t.Fatalf("%s ledger: records %d, quarantined %d %v; want 30, 4 %v", name, c.res.Records, c.res.IngestQuarantined, c.res.IngestByClass, want)
		}
	}

	// Done events from before row ownership carry no classes, and each
	// the whole input's count: resuming such a journal must not add them.
	old := freshLedger(2)
	applyEvents(old, []journalEvent{
		{Event: evDone, Shard: 0, Records: 10, Quarantined: 4},
		{Event: evDone, Shard: 1, Records: 20, Quarantined: 4},
	})
	p, err := analysis.ReadPartialFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	c.shards, c.res = old, Result{}
	c.finishResult(p, chaosTestPeriod().Start())
	if c.res.IngestQuarantined != 4 || c.res.IngestByClass != nil {
		t.Fatalf("pre-ownership journal: quarantined %d %v, want the whole input's 4 and no classes", c.res.IngestQuarantined, c.res.IngestByClass)
	}
}
