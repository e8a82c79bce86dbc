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
	records, _ := scene.GenerateAll()
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
