package report

import (
	"strings"
	"testing"
	"time"

	"cellcars/internal/analysis"
	"cellcars/internal/cdr"
	"cellcars/internal/simtime"
)

// TestRenderDegradedReport proves a report with one failed stage
// still carries every other section plus a diagnostic for the hole.
func TestRenderDegradedReport(t *testing.T) {
	r, ctx := buildReport(t)
	r.StageErrors = append(r.StageErrors, analysis.StageError{Stage: "durations", Err: "injected failure (FailStage)"})
	r.Durations = analysis.CellDurations{}

	doc := Render(r, ctx, Options{Now: time.Date(2026, 7, 7, 12, 0, 0, 0, time.UTC)})
	if !strings.Contains(doc, "durations — stage skipped") {
		t.Fatal("missing skipped-stage heading")
	}
	if !strings.Contains(doc, "injected failure") {
		t.Fatal("missing stage diagnostic")
	}
	for _, section := range []string{
		"Table 1", "Figure 3", "Figure 6", "Table 2", "Figure 7",
		"§4.5", "Table 3", "Figure 11",
	} {
		if !strings.Contains(doc, section) {
			t.Fatalf("degraded report lost section %q", section)
		}
	}
	if strings.Contains(doc, "Figure 9") {
		t.Fatal("failed stage still rendered its figure")
	}
}

func TestRenderDataQualitySection(t *testing.T) {
	r, ctx := buildReport(t)
	var stats cdr.IngestStats
	stats.Read = 500
	stats.Quarantined[cdr.ClassBadField] = 9
	stats.Quarantined[cdr.ClassDuplicate] = 2
	q := analysis.NewDataQuality(stats, 3, analysis.DailyPresence{}, simtime.Period{})
	q.Gaps = []analysis.CoverageGap{{Day: 7, Date: t0.AddDate(0, 0, 7), CarsFrac: 0.21, Baseline: 0.77}}
	q.StageErrors = []analysis.StageError{{Stage: "busy", Err: "boom"}}

	doc := Render(r, ctx, Options{Quality: q})
	for _, want := range []string{
		"## Data Quality",
		"| records read | 500 |",
		"| quarantined | 11 |",
		"| bad-field | 9 |",
		"| duplicate | 2 |",
		"2017-01-09",
		"data-loss window",
		"| busy | boom |",
	} {
		if !strings.Contains(doc, want) {
			t.Fatalf("quality section missing %q in:\n%s", want, doc)
		}
	}
}

// TestRenderWithoutQualityOmitsSection keeps the section opt-in.
func TestRenderWithoutQualityOmitsSection(t *testing.T) {
	r, ctx := buildReport(t)
	if doc := Render(r, ctx, Options{}); strings.Contains(doc, "Data Quality") {
		t.Fatal("quality section rendered without data")
	}
}
