package cellcars_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"cellcars"
	"cellcars/internal/cdr"
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
	p := cellcars.NewPeriod(time.Date(2017, 3, 1, 10, 0, 0, 0, time.UTC), 5)
	if p.Days() != 5 || p.Start().Hour() != 0 {
		t.Fatal("NewPeriod")
	}
}

func TestFacadeRemoveGhosts(t *testing.T) {
	_, records, _ := facadeScene(t)
	ghostFree, err := cellcars.ReadAll(cellcars.RemoveGhosts(cellcars.NewSliceReader(records)))
	if err != nil {
		t.Fatal(err)
	}
	if len(ghostFree) == 0 || len(ghostFree) >= len(records) {
		t.Fatalf("RemoveGhosts: %d -> %d", len(records), len(ghostFree))
	}
	for _, r := range ghostFree {
		if r.Duration == time.Hour {
			t.Fatal("a one-hour ghost survived")
		}
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
	cw := cellcars.CellWeek(cleaned, ctx, cleaned[0].Cell, 0)
	if cw.Concurrency.Max() == 0 {
		t.Fatal("cell week has no concurrency")
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
