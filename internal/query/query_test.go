package query

import (
	"bytes"
	"errors"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"cellcars/internal/analysis"
	"cellcars/internal/cdr"
	"cellcars/internal/clean"
	"cellcars/internal/obs"
	"cellcars/internal/radio"
	"cellcars/internal/simtime"
	"cellcars/internal/snapshot"
	"cellcars/internal/synth"
)

var qt0 = time.Date(2017, 3, 6, 0, 0, 0, 0, time.UTC) // a Monday

func queryCtx(days int) analysis.Context {
	return analysis.Context{
		Period:          simtime.NewPeriod(qt0, days),
		TZOffsetSeconds: -5 * 3600,
	}
}

// queryWorkload builds a time-sorted stream with per-car
// non-overlapping records — the MergeOrdered precondition — spread
// over the given number of days, session gaps straddling both
// thresholds so sessions cross bucket boundaries.
func queryWorkload(n, days int) []cdr.Record {
	rng := rand.New(rand.NewPCG(7, 11))
	records := make([]cdr.Record, 0, n)
	next := make(map[cdr.CarID]time.Time)
	for len(records) < n {
		car := cdr.CarID(rng.Uint64N(120))
		start, ok := next[car]
		if !ok {
			start = qt0.Add(time.Duration(rng.Uint64N(uint64(days)*6*3600)) * time.Second)
		}
		dur := time.Duration(5+rng.Uint64N(700)) * time.Second
		records = append(records, cdr.Record{
			Car:      car,
			Cell:     radio.MakeCellKey(radio.BSID(rng.Uint64N(40)), radio.SectorID(rng.Uint64N(3)), radio.C1+radio.CarrierID(rng.Uint64N(uint64(radio.NumCarriers)))),
			Start:    start,
			Duration: dur,
		})
		var gap time.Duration
		switch rng.Uint64N(4) {
		case 0:
			gap = time.Duration(rng.Uint64N(30)) * time.Second
		case 1:
			gap = time.Duration(35+rng.Uint64N(500)) * time.Second
		case 2:
			gap = clean.MobilityGap + time.Duration(1+rng.Uint64N(7200))*time.Second
		case 3:
			gap = time.Duration(rng.Uint64N(uint64(days)*12*3600)) * time.Second
		}
		next[car] = start.Add(dur + gap)
	}
	sort.SliceStable(records, func(i, j int) bool {
		return records[i].Start.Before(records[j].Start)
	})
	return records
}

func feed(t *testing.T, s *Store, records []cdr.Record) {
	t.Helper()
	for _, r := range records {
		s.Add(r)
	}
}

// TestWindowReportMatchesBatch is the serving half of the tentpole
// property: a window covering the whole stream must render, endpoint
// by endpoint, byte-identically to a single batch accumulator over the
// same records.
func TestWindowReportMatchesBatch(t *testing.T) {
	ctx := queryCtx(2)
	records := queryWorkload(8000, 2)

	s, err := New(Config{
		Ctx:     ctx,
		Windows: []Window{{Name: "48h", Span: 48 * time.Hour}, {Name: "6h", Span: 6 * time.Hour}},
	})
	if err != nil {
		t.Fatal(err)
	}
	feed(t, s, records)

	batch := analysis.NewStreamingWithOptions(ctx, analysis.RunOptions{})
	if err := batch.AddAll(cdr.NewSliceReader(records)); err != nil {
		t.Fatal(err)
	}
	rep := batch.Finalize()
	if rep.Records == 0 || rep.Handovers.Sessions == 0 {
		t.Fatal("degenerate workload")
	}
	want, err := MarshalReport(&rep)
	if err != nil {
		t.Fatal(err)
	}

	got, err := s.Report("full", "48h")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("served full report differs from batch:\n%s\nvs\n%s", got, want)
	}

	// Every endpoint view over the same window must also match its
	// batch rendering.
	for _, endpoint := range Endpoints() {
		view, _ := viewFor(endpoint)
		want, err := view(&rep)
		if err != nil {
			t.Fatalf("%s: batch view: %v", endpoint, err)
		}
		got, err := s.Report(endpoint, "48h")
		if err != nil {
			t.Fatalf("%s: %v", endpoint, err)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("%s view differs from batch:\n%s\nvs\n%s", endpoint, got, want)
		}
	}

	// A shorter window must actually trim: it covers only the trailing
	// buckets, so it sees fewer records than the whole stream.
	short, err := windowReport(s, "6h")
	if err != nil {
		t.Fatal(err)
	}
	if short.Records >= rep.Records {
		t.Fatalf("6h window saw %d records, whole stream has %d — no trimming happened", short.Records, rep.Records)
	}
	if short.Records == 0 {
		t.Fatal("6h window empty; workload should populate the trailing buckets")
	}
}

// TestReportCacheInvalidation: a repeated query inside one epoch is
// served from cache (same backing bytes); a record advancing the live
// bucket invalidates it.
func TestReportCacheInvalidation(t *testing.T) {
	ctx := queryCtx(2)
	reg := obs.New()
	s, err := New(Config{Ctx: ctx, Obs: reg, Windows: []Window{{Name: "48h", Span: 48 * time.Hour}}})
	if err != nil {
		t.Fatal(err)
	}
	rec := func(offset time.Duration) cdr.Record {
		return cdr.Record{Car: 1, Cell: radio.MakeCellKey(1, 0, radio.C1), Start: qt0.Add(offset), Duration: 30 * time.Second}
	}
	s.Add(rec(10 * time.Minute))

	a, err := s.Report("summary", "48h")
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Report("summary", "48h")
	if err != nil {
		t.Fatal(err)
	}
	if &a[0] != &b[0] {
		t.Fatal("second query within one epoch was not served from cache")
	}

	// A record in the same bucket does NOT invalidate (bounded
	// staleness by design)...
	s.Add(rec(11 * time.Minute))
	c, _ := s.Report("summary", "48h")
	if &a[0] != &c[0] {
		t.Fatal("cache invalidated without a bucket advance")
	}
	// ...but advancing the live bucket does.
	s.Add(rec(2 * time.Hour))
	d, err := s.Report("summary", "48h")
	if err != nil {
		t.Fatal(err)
	}
	if &a[0] == &d[0] {
		t.Fatal("cache survived a bucket advance")
	}
	if hits := reg.Counter("cellcars_query_cache_hits_total").Value(); hits != 2 {
		t.Fatalf("cache hits = %d, want 2", hits)
	}
}

// TestCheckpointRestore: a cut written mid-stream restores into a
// fresh store that, after replaying only the post-watermark tail,
// serves byte-identical reports. The stores have no obs.Registry.
func TestCheckpointRestore(t *testing.T) {
	ctx := queryCtx(2)
	records := queryWorkload(6000, 2)
	dir := &snapshot.Dir{Path: filepath.Join(t.TempDir(), "cuts"), Keep: 2}
	cfg := Config{Ctx: ctx, Snapshots: dir, Windows: []Window{{Name: "48h", Span: 48 * time.Hour}}}

	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cutAt := len(records) * 2 / 3
	feed(t, s, records[:cutAt])
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	feed(t, s, records[cutAt:])
	want, err := s.Report("full", "48h")
	if err != nil {
		t.Fatal(err)
	}
	// cfg.Obs is nil: Add, the window miss with its roll-up build, the
	// cut and the restore below all run on nil metric handles, and the
	// store's own counters still feed /stats.
	if st := s.SnapshotStats(); st.Records != int64(len(records)) || st.RollupBuilds == 0 {
		t.Fatalf("stats without a registry: %+v", st)
	}

	restored, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	watermark, ok, err := restored.Restore()
	if err != nil || !ok {
		t.Fatalf("restore: ok=%v err=%v", ok, err)
	}
	if watermark != int64(cutAt) {
		t.Fatalf("restored watermark %d, want %d", watermark, cutAt)
	}
	feed(t, restored, records[watermark:]) // the tail replay
	got, err := restored.Report("full", "48h")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatal("restored store serves a different report")
	}
}

// TestRestoreRefusesAStoreThatHasTakenRecords: a cut restored into a
// store that has taken records would replace its buckets and keep the
// memos folded from them, so the store would answer neither as itself
// nor as the cut. Restore refuses it, naming the rule, and the store
// answers as before; a fresh store restores the same cut.
func TestRestoreRefusesAStoreThatHasTakenRecords(t *testing.T) {
	records := queryWorkload(3000, 4)
	dir := &snapshot.Dir{Path: filepath.Join(t.TempDir(), "cuts"), Keep: 2}
	cfg := Config{Ctx: queryCtx(4), Snapshots: dir, Windows: []Window{{Name: "4d", Span: 96 * time.Hour}}}
	cutter, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feed(t, cutter, records)
	if _, err := cutter.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want, err := cutter.Report("full", "4d")
	if err != nil {
		t.Fatal(err)
	}

	used, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	shifted := append([]cdr.Record(nil), records[:len(records)/2]...)
	for i := range shifted {
		shifted[i].Car += 1000
	}
	feed(t, used, shifted)
	before, err := used.Report("summary", "4d")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := used.Restore(); err == nil || ok || !strings.Contains(err.Error(), "must be empty") {
		t.Fatalf("restore into a store holding %d records: ok=%v err=%v; want it refused as not empty", len(shifted), ok, err)
	}
	if after, err := used.Report("summary", "4d"); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("a refused restore changed the store's answer (%v)", err)
	}

	fresh, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if wm, ok, err := fresh.Restore(); err != nil || !ok || wm != int64(len(records)) {
		t.Fatalf("restore into a fresh store: watermark %d ok=%v err=%v", wm, ok, err)
	}
	if got, err := fresh.Report("full", "4d"); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("the restored fresh store answers otherwise than the store that cut (%v)", err)
	}
}

// TestCheckpointWritesAStateOnce: a cut asked for at the watermark of
// the last cut this store wrote is that cut — nothing is written and
// the freshness SLIs keep describing the file that exists. Any Add, a
// late record included, a failed cut and a Restore each force the next
// one.
func TestCheckpointWritesAStateOnce(t *testing.T) {
	records := queryWorkload(3000, 2)
	dir := &snapshot.Dir{Path: filepath.Join(t.TempDir(), "cuts"), Keep: 8}
	cfg := Config{Ctx: queryCtx(2), Snapshots: dir, Windows: []Window{{Name: "48h", Span: 48 * time.Hour}}}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cut := func(when string, wantSeq uint64, wantCuts int) {
		t.Helper()
		seq, err := s.Checkpoint()
		if err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		cuts, err := dir.Cuts()
		if err != nil {
			t.Fatal(err)
		}
		f := s.Freshness()
		if seq != wantSeq || len(cuts) != wantCuts || f.LastCutSeq != wantSeq || f.LastCutError != "" {
			t.Fatalf("%s: cut %d, %d cut files, freshness %+v; want cut %d, %d files", when, seq, len(cuts), f, wantSeq, wantCuts)
		}
	}
	feed(t, s, records[:2000])
	cut("first cut", 1, 1)
	age := s.Freshness().LastCutAgeSeconds
	time.Sleep(5 * time.Millisecond)
	cut("same state again", 1, 1)
	cut("and again", 1, 1)
	if got := s.Freshness().LastCutAgeSeconds; got <= age {
		t.Fatalf("last cut age went from %v to %v across skipped cuts: it is the written cut's age", age, got)
	}
	feed(t, s, records[2000:])
	cut("after more records", 2, 2)
	s.Add(records[0]) // late: an hour the live index passed long ago
	cut("after a late record", 3, 3)

	// A cut that fails leaves nothing to stand for the next one, even
	// though no record arrives in between.
	s.Add(records[1])
	orig := snapshot.FS
	snapshot.FS.Rename = func(string, string) error { return errors.New("injected rename fault") }
	_, err = s.Checkpoint()
	snapshot.FS = orig
	if err == nil {
		t.Fatal("cut under a failing rename succeeded")
	}
	if f := s.Freshness(); f.LastCutSeq != 3 || f.LastCutError == "" {
		t.Fatalf("after the failed cut: freshness %+v, want cut 3 and its error", f)
	}
	cut("retry of the failed cut", 4, 4)

	// So does a restore: the restored store wrote no cut of its own.
	s, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Restore(); err != nil || !ok {
		t.Fatalf("restore: ok=%v err=%v", ok, err)
	}
	cut("first cut of a restored store", 5, 5)
	cut("same state again", 5, 5)
}

// TestRestoreSkipsTornCut: a truncated newest cut falls back to the
// previous valid one.
func TestRestoreSkipsTornCut(t *testing.T) {
	ctx := queryCtx(1)
	records := queryWorkload(2000, 1)
	dir := &snapshot.Dir{Path: filepath.Join(t.TempDir(), "cuts"), Keep: 4}
	cfg := Config{Ctx: ctx, Snapshots: dir, Windows: []Window{{Name: "24h", Span: 24 * time.Hour}}}

	s, _ := New(cfg)
	feed(t, s, records[:1000])
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	feed(t, s, records[1000:])
	seq, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	// Tear the newest cut as a crash mid-write would.
	data, err := os.ReadFile(dir.CutPath(seq))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir.CutPath(seq), data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	restored, _ := New(cfg)
	watermark, ok, err := restored.Restore()
	if err != nil || !ok {
		t.Fatalf("restore: ok=%v err=%v", ok, err)
	}
	if watermark != 1000 {
		t.Fatalf("fell back to watermark %d, want 1000", watermark)
	}
}

// TestServerEndpoints covers the HTTP surface: probes, listings,
// report routing, and error mapping.
func TestServerEndpoints(t *testing.T) {
	ctx := queryCtx(1)
	reg := obs.New()
	s, err := New(Config{Ctx: ctx, Obs: reg, Windows: []Window{{Name: "24h", Span: 24 * time.Hour}}})
	if err != nil {
		t.Fatal(err)
	}
	feed(t, s, queryWorkload(500, 1))
	srv := NewServer(s, reg)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.String()
	}

	if code, body := get("/healthz"); code != 200 || body != "ok\n" {
		t.Fatalf("/healthz: %d %q", code, body)
	}
	if code, _ := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz before ready: %d", code)
	}
	srv.SetReady(true)
	if code, _ := get("/readyz"); code != 200 {
		t.Fatalf("/readyz after ready: %d", code)
	}
	if code, body := get("/windows"); code != 200 || !bytes.Contains([]byte(body), []byte(`"24h"`)) {
		t.Fatalf("/windows: %d %q", code, body)
	}
	if code, body := get("/stats"); code != 200 || !bytes.Contains([]byte(body), []byte(`"records": 500`)) {
		t.Fatalf("/stats: %d %q", code, body)
	}
	if code, _ := get("/report/summary?window=24h"); code != 200 {
		t.Fatalf("/report/summary: %d", code)
	}
	if code, _ := get("/report/summary"); code != 200 {
		t.Fatalf("/report/summary default window: %d", code)
	}
	if code, _ := get("/report/nope?window=24h"); code != http.StatusNotFound {
		t.Fatalf("unknown endpoint: %d", code)
	}
	if code, _ := get("/report/summary?window=99d"); code != http.StatusNotFound {
		t.Fatalf("unknown window: %d", code)
	}
	if code, body := get("/metrics"); code != 200 || !bytes.Contains([]byte(body), []byte("cellcars_query_records_total")) {
		t.Fatalf("/metrics: %d", code)
	}
}

// TestConfigValidation pins the constructor's rejection paths.
func TestConfigValidation(t *testing.T) {
	ctx := queryCtx(1)
	bad := []Config{
		{},
		{Ctx: ctx, Bucket: -time.Hour},
		{Ctx: ctx, Bucket: 7 * time.Minute},
		{Ctx: ctx, Windows: []Window{{Name: "", Span: time.Hour}}},
		{Ctx: ctx, Windows: []Window{{Name: "x", Span: 90 * time.Minute}}},
		{Ctx: ctx, Windows: []Window{{Name: "x", Span: time.Hour}, {Name: "x", Span: 2 * time.Hour}}},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted, want error", i)
		}
	}
	if _, err := New(Config{Ctx: ctx}); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

// serveFleet is the benchmark's serve fleet: 400 generated cars over
// 14 days, in start order.
func serveFleet(b *testing.B) (analysis.Context, []cdr.Record) {
	cfg := synth.DefaultConfig(400)
	cfg.Period = simtime.NewPeriod(time.Date(2017, 1, 2, 0, 0, 0, 0, time.UTC), 14)
	records, _ := synth.NewWorld(cfg).GenerateAll()
	return analysis.Context{Period: cfg.Period}, records
}

// BenchmarkWindowFold is what a full-window miss spends on the 14 d
// window of the benchmark's serve fleet (400 generated cars over 14
// days, drained), its operands listed and built by compose's own
// windowOperands and buildRollups, left-folded by fold into a fresh
// accumulator, then finalized. warm is a miss at the next tick: its
// roll-ups are memoised, so it folds the study memo of the 13 passed
// days, the roll-up of the last day so far and the live hour restored.
// cold drops every memo first, as a restart's first miss finds them:
// it restores every hour, builds the 14 day roll-ups and extends the
// study memo from the first. Each reports the operands of the fold and
// the hours restored per miss. Profile it with
// `go test -run '^$' -bench WindowFold -cpuprofile cpu.out ./internal/query`.
func BenchmarkWindowFold(b *testing.B) {
	ctx, records := serveFleet(b)
	w := Window{Name: "14d", Span: 14 * 24 * time.Hour}
	s, err := New(Config{Ctx: ctx, Windows: []Window{w}})
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range records {
		s.Add(r)
	}
	// miss lists and builds the window's operands, returning them and
	// the hours it restored.
	miss := func(b *testing.B) ([]operand, int) {
		ops, _, err := s.windowOperands(w)
		if err != nil {
			b.Fatal(err)
		}
		var hours func([]operand) int
		hours = func(ops []operand) (n int) {
			for _, op := range ops {
				if op.enc != nil {
					n++
				}
				n += hours(op.parts)
			}
			return n
		}
		restored := hours(ops)
		if err := s.buildRollups(ops); err != nil {
			b.Fatal(err)
		}
		return ops, restored
	}
	finalize := func(b *testing.B, ops []operand) {
		acc, err := s.fold(ops)
		if err != nil {
			b.Fatal(err)
		}
		if rep := acc.Finalize(); rep.Records == 0 {
			b.Fatal("empty fold")
		}
	}
	b.Run("warm", func(b *testing.B) {
		ops, hours := miss(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			finalize(b, ops)
		}
		b.ReportMetric(float64(len(ops)), "operands")
		b.ReportMetric(float64(hours), "hours/fold")
	})
	b.Run("cold", func(b *testing.B) {
		var ops []operand
		var hours int
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.mu.Lock()
			s.days, s.study = make(map[int]*dayState), dayState{}
			s.mu.Unlock()
			ops, hours = miss(b)
			finalize(b, ops)
		}
		b.ReportMetric(float64(len(ops)), "operands")
		b.ReportMetric(float64(hours), "hours/fold")
	})
}
