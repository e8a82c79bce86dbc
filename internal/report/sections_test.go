package report

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"cellcars/internal/analysis"
	"cellcars/internal/cdr"
	"cellcars/internal/simtime"
)

// text renders the report to a string through the terminal renderer.
func text(t *testing.T, failStage string, opts Options) string {
	t.Helper()
	r, ctx := buildReportFailing(t, failStage)
	var b strings.Builder
	if err := Text(&b, r, ctx, opts); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestEveryStageHasOneSection is the invariant the fleet-usage stage
// slipped through for ten PRs: the engine ran it and no report printed
// it. The profile of an observed run with a load source and busy cells
// names every engine stage; each must have exactly one section row.
func TestEveryStageHasOneSection(t *testing.T) {
	r, _ := buildReport(t)
	if len(r.Profile) < 10 {
		t.Fatalf("fixture ran only %d stages; it must enable them all", len(r.Profile))
	}
	rows := map[string]int{}
	for _, s := range sections {
		if s.stage != "" {
			rows[s.stage]++
		}
	}
	for _, p := range r.Profile {
		if rows[p.Stage] != 1 {
			t.Errorf("engine stage %q has %d section rows, want exactly 1", p.Stage, rows[p.Stage])
		}
		delete(rows, p.Stage)
	}
	for stage := range rows {
		t.Errorf("section row names stage %q, which the engine does not run", stage)
	}
}

// TestSectionsKeyedOnTheirOwnStage: a load-dependent section is there
// when its own stage left a result or failed, never because of a
// neighbour. Figure 7 used to be gated on the segments result, so a
// failed segments stage silently took Figure 7 with it — from the
// terminal and from the Markdown.
func TestSectionsKeyedOnTheirOwnStage(t *testing.T) {
	for _, tc := range []struct {
		fail                 string
		textWant, textAbsent string
		mdWant, mdAbsent     string
	}{
		{"segments", "== Figure 7: time in busy cells ==", "== Table 2", "## Figure 7 — time in busy cells", "## Table 2"},
		{"busy", "== Table 2: car segmentation ==", "== Figure 7", "## Table 2 — car segmentation", "## Figure 7"},
	} {
		t.Run(tc.fail, func(t *testing.T) {
			r, ctx := buildReportFailing(t, tc.fail)
			var b strings.Builder
			if err := Text(&b, r, ctx, Options{}); err != nil {
				t.Fatal(err)
			}
			term, doc := b.String(), Render(r, ctx, Options{})
			for _, c := range []struct{ out, want, absent, diag string }{
				{term, tc.textWant, tc.textAbsent, `skipped: analysis stage "` + tc.fail + `" failed: injected failure`},
				{doc, tc.mdWant, tc.mdAbsent, "## " + tc.fail + " — stage skipped"},
			} {
				if !strings.Contains(c.out, c.want) {
					t.Errorf("failing %s lost %q:\n%s", tc.fail, c.want, c.out)
				}
				if strings.Contains(c.out, c.absent) {
					t.Errorf("failing %s still rendered %q", tc.fail, c.absent)
				}
				if !strings.Contains(c.out, c.diag) {
					t.Errorf("failing %s printed no diagnostic %q:\n%s", tc.fail, c.diag, c.out)
				}
			}
		})
	}
}

// TestTextSurvivesFailedDaysStage: a failed days stage leaves
// Report.DaysHist nil, which carmerge and cardrive used to dereference
// (SIGSEGV); the one renderer prints the diagnostic and carries on.
func TestTextSurvivesFailedDaysStage(t *testing.T) {
	out := text(t, "days", Options{})
	if !strings.Contains(out, `!! Figure 6 skipped: analysis stage "days" failed`) {
		t.Errorf("no Figure 6 diagnostic:\n%s", out)
	}
	for _, want := range []string{"== Figure 3", "== Fleet usage", "== Figure 9", "== Table 3", "== Pipeline profile =="} {
		if !strings.Contains(out, want) {
			t.Errorf("degraded report lost %q", want)
		}
	}
}

// TestRenderPanicIsIsolated: a section whose renderer panics is dropped
// whole and named — in the report and in the Data Quality block — and
// every other section still appears, in both formats.
func TestRenderPanicIsIsolated(t *testing.T) {
	r, ctx := buildReport(t)
	r.DaysHist = nil // the days stage "succeeded" but left nothing to draw
	q := &analysis.DataQuality{RecordsRead: 42}
	var b strings.Builder
	if err := Text(&b, r, ctx, Options{Quality: q}); err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]struct{ out, diag, gone, kept, quality string }{
		"text":     {b.String(), "!! Figure 6 skipped: runtime error", "== Figure 6", "== Table 3", "skipped stage render: Figure 6: panic:"},
		"markdown": {Render(r, ctx, Options{Quality: q}), "## Figure 6 — section skipped", "Paper: sharp drop", "## Table 3", "| render | Figure 6: panic:"},
	} {
		if !strings.Contains(c.out, c.diag) || !strings.Contains(c.out, c.kept) || !strings.Contains(c.out, c.quality) {
			t.Errorf("%s: want %q, %q and %q in:\n%s", name, c.diag, c.kept, c.quality, c.out)
		}
		if strings.Contains(c.out, c.gone) {
			t.Errorf("%s: half-rendered section %q left behind", name, c.gone)
		}
	}
	if len(q.StageErrors) != 0 {
		t.Errorf("rendering wrote its failures into the caller's DataQuality: %v", q.StageErrors)
	}
}

// TestRecordLevelFiguresNeedTheirInputs: Figures 5 and 8 (and Figure 10
// inside the clusters section) are drawn from the raw records, Figure 1
// from the load model; a renderer given neither — a streaming run,
// carmerge, cardrive — skips them without a heading.
func TestRecordLevelFiguresNeedTheirInputs(t *testing.T) {
	out := text(t, "", Options{})
	for _, absent := range []string{"Figure 1:", "Figure 5:", "Figure 8:", "Figure 10:"} {
		if strings.Contains(out, absent) {
			t.Errorf("%q rendered without records or model", absent)
		}
	}
	if !strings.Contains(out, "== Figure 11:") {
		t.Errorf("Figure 11 needs only the clusters result:\n%s", out)
	}
}

// TestMarkdownPreprocessingCountsOutOfPeriod: the out-of-period count
// the terminal prints, and the Markdown profile paragraph cites, is in
// the Markdown Preprocessing table too.
func TestMarkdownPreprocessingCountsOutOfPeriod(t *testing.T) {
	r, ctx := buildReport(t)
	r.OutOfPeriod = 17
	if doc := Render(r, ctx, Options{}); !strings.Contains(doc, "| outside the study period | 17 |") {
		t.Errorf("Preprocessing table lacks the out-of-period row:\n%s", doc)
	}
}

// TestProfileCheckpointsLine: a report of a run that checkpointed says
// what the cuts cost in both formats — in the text form on the line
// before the profile block's blank line — and one that did not says
// nothing.
func TestProfileCheckpointsLine(t *testing.T) {
	r, ctx := buildReport(t)
	plain := text(t, "", Options{})
	if strings.Contains(plain, "checkpoints ") || strings.Contains(Render(r, ctx, Options{}), "Checkpoints:") {
		t.Fatal("a run without cuts renders a checkpoints line")
	}
	r.ProfileCheckpoints = analysis.CheckpointProfile{Cuts: 16, StallSeconds: 0.0731, Bytes: 25_420_000}
	var b strings.Builder
	if err := Text(&b, r, ctx, Options{}); err != nil {
		t.Fatal(err)
	}
	if want := "\ncheckpoints 16, stalled 0.0731 s, written 25.42 MB\n\n"; !strings.Contains(b.String(), want) {
		t.Errorf("text report lacks %q:\n%s", want, b.String())
	}
	if want := "Checkpoints: 16 cuts kept ingest waiting 0.0731 s in all and wrote 25.42 MB.\n"; !strings.Contains(Render(r, ctx, Options{}), want) {
		t.Errorf("markdown report lacks %q", want)
	}
}

// TestDurationsNotWholeSeconds is the contract for durations no codec
// carries but the record-slice API can: each is counted in Figure 9's
// CDF at its floor, a negative one at 0 s, the means keep it exact, and
// the section says how many there were whenever there were any.
func TestDurationsNotWholeSeconds(t *testing.T) {
	ctx := analysis.Context{Period: simtime.NewPeriod(t0, 7)}
	const line = "records not whole seconds: counted at their floor, a negative one at 0 s"
	for _, tc := range []struct {
		durations []time.Duration
		bins      string // the CDF's [second, count] pairs
		notWhole  int64
	}{
		{[]time.Duration{60 * time.Second}, "[[60,1]]", 0},
		{[]time.Duration{1500 * time.Millisecond}, "[[1,1]]", 1},
		{[]time.Duration{-3 * time.Second}, "[[0,1]]", 1},
		{[]time.Duration{600200 * time.Millisecond}, "[[600,1]]", 1},
		{[]time.Duration{1500 * time.Millisecond, -3 * time.Second, 600200 * time.Millisecond, 60 * time.Second},
			"[[0,1],[1,1],[60,1],[600,1]]", 3},
	} {
		var records []cdr.Record
		var sum time.Duration
		for i, d := range tc.durations {
			records = append(records, cdr.Record{Car: cdr.CarID(i), Cell: cell(1), Start: t0.Add(time.Hour), Duration: d})
			sum += d
		}
		r, err := analysis.Run(records, ctx, analysis.RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		d := r.Durations
		bins, err := json.Marshal(d.Truncated)
		if err != nil {
			t.Fatal(err)
		}
		if string(bins) != tc.bins || d.NotWhole != tc.notWhole {
			t.Errorf("%v: bins %s, %d not whole; want %s, %d", tc.durations, bins, d.NotWhole, tc.bins, tc.notWhole)
		}
		if want := sum.Seconds() / float64(len(records)); math.Abs(d.FullMean-want) > 1e-9 {
			t.Errorf("%v: full mean %v, want %v", tc.durations, d.FullMean, want)
		}
		var b strings.Builder
		if err := Text(&b, r, ctx, Options{}); err != nil {
			t.Fatal(err)
		}
		printed := fmt.Sprintf("\n%d %s\n", tc.notWhole, line)
		if got := strings.Contains(b.String(), printed); got != (tc.notWhole != 0) || strings.Contains(b.String(), line) != got {
			t.Errorf("%v: the Figure 9 section printed the not-whole line: %v; want it only when the count is not zero\n%s",
				tc.durations, got, b.String())
		}
	}
}
