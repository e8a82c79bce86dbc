package report

import (
	"strings"
	"testing"
	"time"

	"cellcars/internal/analysis"
	"cellcars/internal/cdr"
	"cellcars/internal/obs"
	"cellcars/internal/radio"
	"cellcars/internal/simtime"
)

var t0 = time.Date(2017, 1, 2, 0, 0, 0, 0, time.UTC)

func cell(bs radio.BSID) radio.CellKey { return radio.MakeCellKey(bs, 0, radio.C3) }

type fixedLoad struct{ busy radio.CellKey }

func (f *fixedLoad) Utilization(c radio.CellKey, bin int) float64 {
	if c == f.busy {
		return 0.9
	}
	return 0.2
}
func (f *fixedLoad) BusyThreshold() float64 { return 0.8 }

func buildReport(t *testing.T) (*analysis.Report, analysis.Context) {
	t.Helper()
	return buildReportFailing(t, "")
}

// buildReportFailing runs the full pipeline — load source, busy cells
// and metrics registry, so all ten stages run and leave a profile —
// with the named stage failed by the chaos hook.
func buildReportFailing(t *testing.T, failStage string) (*analysis.Report, analysis.Context) {
	t.Helper()
	busy := cell(9)
	ctx := analysis.Context{
		Period: simtime.NewPeriod(t0, 14),
		Load:   &fixedLoad{busy: busy},
	}
	var records []cdr.Record
	for d := 0; d < 14; d++ {
		base := time.Duration(d) * 24 * time.Hour
		records = append(records,
			cdr.Record{Car: 1, Cell: cell(1), Start: t0.Add(base + 8*time.Hour), Duration: 2 * time.Minute},
			cdr.Record{Car: 1, Cell: cell(2), Start: t0.Add(base + 8*time.Hour + 3*time.Minute), Duration: 2 * time.Minute},
			cdr.Record{Car: 2, Cell: busy, Start: t0.Add(base + 18*time.Hour), Duration: 5 * time.Minute},
		)
	}
	r, err := analysis.Run(records, ctx, analysis.RunOptions{
		RareDays:  []int{2, 5},
		BusyCells: []radio.CellKey{busy, cell(1)},
		FailStage: failStage,
		Obs:       obs.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return r, ctx
}

func TestRenderContainsEverySection(t *testing.T) {
	r, ctx := buildReport(t)
	doc := Render(r, ctx, Options{
		Title:            "Test run",
		SceneDescription: "2 cars, 14 days",
		Now:              time.Date(2026, 7, 7, 12, 0, 0, 0, time.UTC),
	})
	for _, want := range []string{
		"# Test run",
		"2 cars, 14 days",
		"Generated 2026-07-07T12:00:00Z",
		"## Preprocessing (§3)",
		"## Table 1 — daily presence",
		"## Figure 3 — total time on network",
		"## Figure 6 — days on network",
		"## Table 2 — car segmentation",
		"## Figure 7 — time in busy cells",
		"## Figure 9 — per-cell connection durations",
		"## §4.5 — handovers per mobility session",
		"## Table 3 — carrier use",
		"## Figure 11 — busy-radio clusters",
		"inter-base-station",
		"| Monday |",
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("document missing %q", want)
		}
	}
	// Markdown tables must be well formed: every table row line has the
	// same pipe count as its header within a block. Cheap sanity: no
	// stray tab characters and no unterminated fences.
	if strings.Count(doc, "```")%2 != 0 {
		t.Fatal("unbalanced code fences")
	}
}

func TestRenderDefaults(t *testing.T) {
	r, ctx := buildReport(t)
	doc := Render(r, ctx, Options{})
	if !strings.Contains(doc, "# Connected-car measurement report") {
		t.Fatal("default title missing")
	}
	if strings.Contains(doc, "Generated") {
		t.Fatal("zero Now must not stamp the document")
	}
}

func TestRenderWithoutLoadSections(t *testing.T) {
	// A report without load-dependent analyses skips their sections.
	ctx := analysis.Context{Period: simtime.NewPeriod(t0, 7)}
	records := []cdr.Record{
		{Car: 1, Cell: cell(1), Start: t0.Add(time.Hour), Duration: time.Minute},
	}
	r, err := analysis.Run(records, ctx, analysis.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	doc := Render(r, ctx, Options{})
	if strings.Contains(doc, "Table 2") || strings.Contains(doc, "Figure 11") {
		t.Fatal("load-dependent sections rendered without a load source")
	}
	if !strings.Contains(doc, "Table 3") {
		t.Fatal("record-level sections missing")
	}
}
