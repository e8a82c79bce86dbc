// Package report lays a pipeline run out as the paper's tables and
// figures, once, and renders that layout in two formats: Text prints
// it to a terminal (what caranalyze, carmerge and cardrive show) and
// Render produces the durable Markdown document with the paper's
// reference values alongside.
//
// The layout is the sections table below: which sections exist, in
// what order, which engine stage each renders and what else it needs.
// One walker applies it to both formats, so a section whose stage
// failed — or whose own rendering panics — degrades to a diagnostic in
// the same place, whichever binary and format printed it.
package report

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"cellcars/internal/analysis"
	"cellcars/internal/load"
)

// Options controls report assembly.
type Options struct {
	// Title heads the Markdown document.
	Title string
	// SceneDescription is a one-line provenance note (fleet size, seed,
	// window) printed under the Markdown title.
	SceneDescription string
	// Now stamps the Markdown document; pass a fixed time for
	// reproducible output (library code never reads the wall clock
	// itself).
	Now time.Time
	// Quality, when non-nil, adds the Data Quality block: ingest and
	// quarantine counters, detected coverage-gap days, skipped stages
	// and excluded shards.
	Quality *analysis.DataQuality
	// Exhibits are the record-level figures' exhibits (Figure 1's
	// fallback cells, 5, 8 and 10) and their records; the figures that
	// need them are skipped when nil — a streaming run or a reducer over
	// partial state has no records to show.
	Exhibits *analysis.Exhibits
	// Model is the synthetic load model; Figure 1's saturation
	// demonstration needs it and is skipped when nil.
	Model *load.Model
}

// env is what a section renderer sees.
type env struct {
	r    *analysis.Report
	ctx  analysis.Context
	opts Options
}

// section is one row of the report layout.
type section struct {
	// name is how diagnostics call the section.
	name string
	// stage is the engine stage whose result the section renders; ""
	// for sections computed at render time.
	stage string
	// has reports whether the section's own input exists, for sections
	// that do not appear in every run: the result of a stage that only
	// runs with a load source, the exhibits, the load model. A
	// failed stage is reported whatever has says; nil means always.
	has func(*env) bool
	// text and md render the section in the two formats; nil leaves it
	// out of that format.
	text, md func(*strings.Builder, *env)
}

func hasExhibits(e *env) bool { return e.opts.Exhibits != nil }

// sections is the report, top to bottom. Every engine stage has exactly
// one row (TestEveryStageHasOneSection), and each load-dependent row is
// keyed on its own stage's result, never on a neighbour's.
var sections = []section{
	{name: "Preprocessing", text: textPreprocessing, md: mdPreprocessing},
	{name: "Figure 1", has: func(e *env) bool { return e.opts.Model != nil }, text: textFigure1},
	{name: "Figure 2 / Table 1", stage: "presence", text: textPresence, md: mdPresence},
	{name: "Figure 3", stage: "connected", text: textConnected, md: mdConnected},
	{name: "Figure 4", text: textFigure4},
	{name: "Figure 5", has: hasExhibits, text: textFigure5},
	{name: "Fleet usage", stage: "usage", text: textUsage, md: mdUsage},
	{name: "Figure 6", stage: "days", text: textDays, md: mdDays},
	{name: "Table 2", stage: "segments", has: func(e *env) bool { return len(e.r.Segments) > 0 },
		text: textSegments, md: mdSegments},
	{name: "Figure 7", stage: "busy", has: func(e *env) bool { return e.r.Busy.FracByCar != nil },
		text: textBusy, md: mdBusy},
	{name: "Figure 8", has: hasExhibits, text: textFigure8},
	{name: "Figure 9", stage: "durations", text: textDurations, md: mdDurations},
	{name: "Figures 10/11", stage: "clusters", has: func(e *env) bool { return len(e.r.Clusters.Cells) > 0 },
		text: textClusters, md: mdClusters},
	{name: "§4.5", stage: "handovers", text: textHandovers, md: mdHandovers},
	{name: "Table 3", stage: "carriers", text: textCarriers, md: mdCarriers},
	{name: "Pipeline profile", has: func(e *env) bool { return len(e.r.Profile) > 0 },
		text: textProfile, md: mdProfile},
}

// walk renders every section of one format into b and returns the
// sections whose rendering panicked. A section whose stage failed
// becomes a diagnostic naming the stage; a section that panics is
// dropped whole and becomes a diagnostic too; every other section still
// appears.
func walk(b *strings.Builder, e *env, markdown bool) (panicked []string) {
	for i := range sections {
		s := &sections[i]
		render := s.text
		if markdown {
			render = s.md
		}
		if render == nil {
			continue
		}
		if f := e.r.Failed(s.stage); f != nil {
			if markdown {
				fmt.Fprintf(b, "## %s — stage skipped\n\n> Analysis stage `%s` failed and was skipped: %s\n\n", f.Stage, f.Stage, f.Err)
			} else {
				fmt.Fprintf(b, "!! %s skipped: analysis stage %q failed: %s\n\n", s.name, f.Stage, f.Err)
			}
			continue
		}
		if s.has != nil && !s.has(e) {
			continue
		}
		var out strings.Builder
		if p := isolate(func() { render(&out, e) }); p != nil {
			if markdown {
				fmt.Fprintf(b, "## %s — section skipped\n\n> Rendering failed: %v\n\n", s.name, p)
			} else {
				fmt.Fprintf(b, "!! %s skipped: %v\n\n", s.name, p)
			}
			panicked = append(panicked, fmt.Sprintf("%s: panic: %v", s.name, p))
			continue
		}
		b.WriteString(out.String())
	}
	return panicked
}

// isolate runs fn and returns what it panicked with, if anything.
func isolate(fn func()) (p any) {
	defer func() { p = recover() }()
	fn()
	return nil
}

// quality returns the Data Quality block to print: the caller's, plus
// one "render" entry per section that panicked in this rendering.
func quality(q *analysis.DataQuality, panicked []string) *analysis.DataQuality {
	if q == nil || len(panicked) == 0 {
		return q
	}
	c := *q
	c.StageErrors = append([]analysis.StageError(nil), q.StageErrors...)
	for _, p := range panicked {
		c.StageErrors = append(c.StageErrors, analysis.StageError{Stage: "render", Err: p})
	}
	return &c
}

// Text prints the report to a terminal: every section of the layout,
// then the Data Quality block when opts.Quality is set. It returns the
// writer's error.
func Text(w io.Writer, r *analysis.Report, ctx analysis.Context, opts Options) error {
	var b strings.Builder
	e := &env{r: r, ctx: ctx, opts: opts}
	if q := quality(opts.Quality, walk(&b, e, false)); q != nil {
		textQuality(&b, q)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Render produces the Markdown document for a report.
func Render(r *analysis.Report, ctx analysis.Context, opts Options) string {
	var b strings.Builder
	title := opts.Title
	if title == "" {
		title = "Connected-car measurement report"
	}
	fmt.Fprintf(&b, "# %s\n\n", title)
	if opts.SceneDescription != "" {
		fmt.Fprintf(&b, "%s\n\n", opts.SceneDescription)
	}
	if !opts.Now.IsZero() {
		fmt.Fprintf(&b, "Generated %s.\n\n", opts.Now.UTC().Format(time.RFC3339))
	}
	e := &env{r: r, ctx: ctx, opts: opts}
	if q := quality(opts.Quality, walk(&b, e, true)); q != nil {
		mdQuality(&b, q)
	}
	return b.String()
}

// sortedClasses returns the quarantine failure classes in name order.
func sortedClasses(q *analysis.DataQuality) []string {
	classes := make([]string, 0, len(q.Quarantined))
	for class := range q.Quarantined {
		classes = append(classes, class)
	}
	sort.Strings(classes)
	return classes
}

// hoursAxis returns the x axis of a 96-bin day: hours, in 15-minute
// steps.
func hoursAxis(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i) / 4
	}
	return xs
}
