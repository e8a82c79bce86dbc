package cellcars_test

import (
	"bytes"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"cellcars"
	"cellcars/internal/cdr"
	"cellcars/internal/radio"
)

// facadeScene builds a tiny scene for exercising the public surface.
func facadeScene(t *testing.T) (*cellcars.Scene, []cellcars.Record, cellcars.Context) {
	t.Helper()
	cfg := cellcars.DefaultSceneConfig(150)
	cfg.WorldSizeKm = 40
	cfg.Period = cellcars.NewPeriod(time.Date(2017, 1, 2, 0, 0, 0, 0, time.UTC), 14)
	scene := cellcars.NewScene(cfg)
	records, _, err := scene.GenerateAll()
	if err != nil {
		t.Fatal(err)
	}
	return scene, records, cellcars.AnalysisContext(scene)
}

func TestFacadePeriods(t *testing.T) {
	if cellcars.DefaultPeriod().Days() != 90 {
		t.Fatal("default period")
	}
	p := cellcars.NewPeriod(time.Date(2017, 3, 1, 10, 0, 0, 0, time.UTC), 5)
	if p.Days() != 5 || p.Start().Hour() != 0 {
		t.Fatal("NewPeriod")
	}
}

func TestFacadeCleaningChain(t *testing.T) {
	_, records, _ := facadeScene(t)
	cleaned, err := cellcars.ReadAll(cellcars.Clean(cellcars.NewSliceReader(records)))
	if err != nil {
		t.Fatal(err)
	}
	if len(cleaned) == 0 || len(cleaned) >= len(records) {
		t.Fatalf("clean chain: %d -> %d", len(records), len(cleaned))
	}
	for _, r := range cleaned {
		if r.Duration > cellcars.TruncateLimit {
			t.Fatalf("record above truncate limit: %v", r.Duration)
		}
		if r.Duration == cellcars.GhostDuration {
			t.Fatal("ghost survived the standard chain")
		}
	}
	ghostFree, err := cellcars.ReadAll(cellcars.RemoveGhosts(cellcars.NewSliceReader(records)))
	if err != nil {
		t.Fatal(err)
	}
	if len(ghostFree) >= len(records) {
		t.Fatal("RemoveGhosts removed nothing")
	}
}

func TestFacadeSortRecords(t *testing.T) {
	_, records, _ := facadeScene(t)
	shuffled := make([]cellcars.Record, len(records))
	copy(shuffled, records)
	// Reverse to unsort.
	for i, j := 0, len(shuffled)-1; i < j; i, j = i+1, j-1 {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	}
	cellcars.SortRecords(shuffled)
	if !cdr.Sorted(shuffled) {
		t.Fatal("SortRecords did not sort")
	}
}

func TestFacadeAnalyzeAndFormat(t *testing.T) {
	scene, records, ctx := facadeScene(t)
	report, err := cellcars.Analyze(records, ctx, cellcars.AnalyzeOptions{
		RareDays:  []int{2, 5},
		BusyCells: scene.Load.VeryBusyCells(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t1 := cellcars.FormatTable1(report)
	if !strings.Contains(t1, "Monday") || !strings.Contains(t1, "Overall") {
		t.Fatalf("table 1:\n%s", t1)
	}
	t2 := cellcars.FormatTable2(report)
	if !strings.Contains(t2, "Rare") || !strings.Contains(t2, "Common") {
		t.Fatalf("table 2:\n%s", t2)
	}
	t3 := cellcars.FormatTable3(report)
	if !strings.Contains(t3, "C3") || !strings.Contains(t3, "Time(%)") {
		t.Fatalf("table 3:\n%s", t3)
	}
}

func TestFacadeMicroAnalyses(t *testing.T) {
	_, records, ctx := facadeScene(t)
	cleaned, err := cellcars.ReadAll(cellcars.RemoveGhosts(cellcars.NewSliceReader(records)))
	if err != nil {
		t.Fatal(err)
	}
	cell, day := cellcars.BusiestCellDay(cleaned, ctx)
	if cell.IsZero() {
		t.Fatal("no busiest cell")
	}
	cd := cellcars.CellDay(cleaned, ctx, cell, day)
	if cd.UniqueCars == 0 || cd.PeakCars == 0 {
		t.Fatalf("cell day: %+v", cd)
	}
	cw := cellcars.CellWeek(cleaned, ctx, cell, 0)
	if cw.Concurrency.Max() == 0 {
		t.Fatal("cell week has no concurrency")
	}
	car := cleaned[0].Car
	m := cellcars.UsageMatrix(cellcars.RecordsOfCar(cleaned, car), ctx)
	if m.Sum() == 0 {
		t.Fatal("usage matrix empty")
	}
}

func TestFacadeFOTA(t *testing.T) {
	scene, records, ctx := facadeScene(t)
	cleaned, err := cellcars.ReadAll(cellcars.RemoveGhosts(cellcars.NewSliceReader(records)))
	if err != nil {
		t.Fatal(err)
	}
	segments := cellcars.FOTASegments(cleaned, ctx, 2)
	if len(segments) == 0 {
		t.Fatal("no segments")
	}
	base := cellcars.DefaultFOTAConfig(nil)
	base.UpdateMB = 50
	res := cellcars.SimulateFOTA(cleaned, ctx, segments, base)
	if res.Cars == 0 || res.DeliveredMB == 0 {
		t.Fatalf("campaign: %+v", res)
	}
	results := cellcars.CompareFOTA(cleaned, ctx, segments, base,
		cellcars.NaivePolicy{},
		cellcars.SegmentAwarePolicy{BusyThreshold: scene.Load.BusyThreshold()},
	)
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	if results[1].BusyShare() > results[0].BusyShare() {
		t.Fatal("segment-aware should not push more busy bytes than naive")
	}
	out := cellcars.FormatFOTAResults(results)
	if !strings.Contains(out, "naive") || !strings.Contains(out, "segment-aware") {
		t.Fatalf("fota format:\n%s", out)
	}
}

func TestFacadePrediction(t *testing.T) {
	_, records, ctx := facadeScene(t)
	cleaned, err := cellcars.ReadAll(cellcars.RemoveGhosts(cellcars.NewSliceReader(records)))
	if err != nil {
		t.Fatal(err)
	}
	car := cleaned[0].Car
	profile := cellcars.LearnProfile(cellcars.RecordsOfCar(cleaned, car), ctx, 1)
	if profile.Predictability < 0 || profile.Predictability > 1 {
		t.Fatalf("predictability = %v", profile.Predictability)
	}
	outcome := cellcars.BacktestCar(cellcars.RecordsOfCar(cleaned, car), ctx, 1, 1, 0.5)
	if outcome.TruePositive+outcome.FalsePositive+outcome.FalseNegative+outcome.TrueNegative == 0 {
		t.Fatal("empty confusion matrix")
	}
	fleet := cellcars.BacktestFleet(cleaned, ctx, 1, 1, 0.5)
	if fleet.Cars == 0 {
		t.Fatal("no cars in fleet backtest")
	}
	clusters := cellcars.ClusterCars(cleaned, ctx, 1, 3, 7)
	if len(clusters) == 0 {
		t.Fatal("no behavioural clusters")
	}
	total := 0
	for _, c := range clusters {
		total += len(c.Cars)
	}
	if total == 0 {
		t.Fatal("clusters empty")
	}
}

func TestFacadeCodecsViaPublicTypes(t *testing.T) {
	_, records, _ := facadeScene(t)
	sample := records[:100]
	var buf bytes.Buffer
	w := cdr.NewBinaryWriter(&buf)
	for _, r := range sample {
		var rec cellcars.Record = r // public alias interchangeable
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	out, err := cellcars.ReadAll(cdr.NewBinaryReader(&buf))
	if err != nil || len(out) != len(sample) {
		t.Fatalf("round trip: %v, %d records", err, len(out))
	}
}

func TestFacadeStreaming(t *testing.T) {
	_, records, ctx := facadeScene(t)
	s := cellcars.NewStreaming(ctx.Period)
	if err := s.AddAll(cellcars.NewSliceReader(records)); err != nil {
		t.Fatal(err)
	}
	rep := s.Finalize()
	if rep.Records == 0 || rep.Presence.TotalCars == 0 {
		t.Fatalf("stream report empty: %+v", rep.Records)
	}
	// Streaming presence must agree with the batch pipeline.
	batch, err := cellcars.Analyze(records, ctx, cellcars.AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Presence.TotalCars != batch.Presence.TotalCars {
		t.Fatalf("cars: stream %d vs batch %d", rep.Presence.TotalCars, batch.Presence.TotalCars)
	}
	if diff := rep.Connected.FullMean - batch.Connected.FullMean; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("full mean: stream %v vs batch %v", rep.Connected.FullMean, batch.Connected.FullMean)
	}
}

// TestFacadeQueryService drives the query surface through the public
// package alone: store, server, window report, and the bit-identity
// with a batch streaming run.
func TestFacadeQueryService(t *testing.T) {
	// Bit-identity between a window fold and a batch run holds under
	// the ordered-merge precondition (per-car chains, no overlap —
	// see internal/analysis/ordered.go), so the workload here is a
	// deterministic chain stream rather than the raw fault-injected
	// scene, whose stuck-teardown records overlap on purpose.
	ctx := cellcars.Context{Period: cellcars.NewPeriod(time.Date(2017, 1, 2, 0, 0, 0, 0, time.UTC), 14), TZOffsetSeconds: -5 * 3600}
	var records []cellcars.Record
	for car := cellcars.CarID(0); car < 60; car++ {
		at := ctx.Period.Start().Add(time.Duration(car) * 7 * time.Minute)
		for i := 0; i < 40; i++ {
			dur := time.Duration(30+int(car)*5+i*11) * time.Second
			records = append(records, cellcars.Record{
				Car:      car,
				Cell:     radio.MakeCellKey(radio.BSID(uint64(car+cellcars.CarID(i))%25), radio.SectorID(i%3), radio.C1),
				Start:    at,
				Duration: dur,
			})
			at = at.Add(dur + time.Duration(10+i*97)*time.Second)
		}
	}
	sort.Slice(records, func(i, j int) bool { return records[i].Start.Before(records[j].Start) })

	store, err := cellcars.NewQueryStore(cellcars.QueryConfig{
		Ctx:     ctx,
		Windows: []cellcars.QueryWindow{{Name: "14d", Span: 14 * 24 * time.Hour}},
		Obs:     cellcars.NewMetricsRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range records {
		store.Add(r)
	}
	served, err := store.Report("full", "14d")
	if err != nil {
		t.Fatal(err)
	}

	s := cellcars.NewStreamingWithOptions(ctx, cellcars.AnalyzeOptions{})
	if err := s.AddAll(cellcars.NewSliceReader(records)); err != nil {
		t.Fatal(err)
	}
	rep := s.Finalize()
	want, err := cellcars.MarshalStreamReport(&rep)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served, want) {
		t.Fatalf("served window report differs from batch (%d vs %d bytes)", len(served), len(want))
	}

	srv := cellcars.NewQueryServer(store, nil)
	srv.SetReady(true)
	req := httptest.NewRequest("GET", "/report/summary?window=14d", nil)
	rr := httptest.NewRecorder()
	srv.ServeHTTP(rr, req)
	if rr.Code != 200 || !strings.Contains(rr.Body.String(), "\"records\"") {
		t.Fatalf("/report/summary: %d %s", rr.Code, rr.Body.String())
	}
	if len(cellcars.DefaultQueryWindows()) != 3 {
		t.Fatal("DefaultQueryWindows should offer 24h/7d/90d")
	}
}
