package report

import (
	"fmt"
	"strings"
	"time"

	"cellcars/internal/analysis"
	"cellcars/internal/cdr"
	"cellcars/internal/load"
	"cellcars/internal/radio"
	"cellcars/internal/textplot"
)

// The terminal renderers, one per row of sections.

func textPreprocessing(b *strings.Builder, e *env) {
	r := e.r
	fmt.Fprintf(b, "== Preprocessing (§3) ==\n")
	fmt.Fprintf(b, "raw records %d, after ghost removal %d (%d one-hour ghosts dropped, %d outside the study period)\n\n",
		r.RawRecords, r.CleanRecords, r.RawRecords-r.CleanRecords, r.OutOfPeriod)
}

// textFigure1 renders the load-model saturation demonstration.
func textFigure1(b *strings.Builder, e *env) {
	model := e.opts.Model
	fmt.Fprintln(b, "== Figure 1: single greedy download saturates a cell ==")
	cells := model.VeryBusyCells()
	if len(cells) < 2 && e.opts.Exhibits != nil {
		// Any two cells will do for the demonstration.
		cells = e.opts.Exhibits.FirstCells
	}
	if len(cells) >= 2 {
		sat := load.Saturate(model, cells[:2], e.ctx.Period.Days()/2,
			20*time.Hour+45*time.Minute, 4*time.Hour, 0.97)
		for i := range sat.Cells {
			fmt.Fprintln(b, textplot.Chart(
				fmt.Sprintf("cell %v: test day (download from 20:45)", sat.Cells[i]),
				hoursAxis(96), sat.Test[i][:], 72, 8))
		}
	}
	fmt.Fprintln(b)
}

func textPresence(b *strings.Builder, e *env) {
	p := e.r.Presence
	fmt.Fprintln(b, "== Figure 2 / Table 1: daily presence ==")
	fmt.Fprintf(b, "population: %d cars, %d cells touched\n", p.TotalCars, p.TotalCells)
	fmt.Fprintf(b, "cars trend:  %.5f + %.6f/day (R² = %.3f)\n",
		p.CarsTrend.Intercept, p.CarsTrend.Slope, p.CarsTrend.R2)
	fmt.Fprintf(b, "cells trend: %.5f + %.6f/day (R² = %.3f)\n",
		p.CellsTrend.Intercept, p.CellsTrend.Slope, p.CellsTrend.R2)
	days := make([]float64, len(p.CarsFrac))
	for i := range days {
		days[i] = float64(i)
	}
	fmt.Fprintln(b, textplot.Chart("% cars on network per day", days, p.CarsFrac, 72, 8))
	fmt.Fprintln(b, analysis.FormatTable1(e.r.WeekdayRows))
}

func textConnected(b *strings.Builder, e *env) {
	c := e.r.Connected
	fmt.Fprintln(b, "== Figure 3: total time on network (fraction of study) ==")
	fmt.Fprintf(b, "means: full %.2f%%, truncated %.2f%% | p99.5: full %.1f%%, truncated %.1f%%\n",
		c.FullMean*100, c.TruncMean*100, c.FullP995*100, c.TruncP995*100)
	xs, ps := c.Truncated.Points(72)
	fmt.Fprintln(b, textplot.Chart("CDF, truncated at 600 s/conn", xs, ps, 72, 8))
}

func textFigure4(b *strings.Builder, _ *env) {
	fmt.Fprintln(b, "== Figure 4: reference 24×7 matrices ==")
	commute, peak, weekend := analysis.ReferenceMatrices()
	fmt.Fprintln(b, textplot.Matrix("commute peaks", &commute))
	fmt.Fprintln(b, textplot.Matrix("network peaks", &peak))
	fmt.Fprintln(b, textplot.Matrix("weekend", &weekend))
}

func textFigure5(b *strings.Builder, e *env) {
	fmt.Fprintln(b, "== Figure 5: usage matrices of 3 sample cars ==")
	x := e.opts.Exhibits
	if missing(b, x) {
		return
	}
	for i, car := range x.Cars {
		m := analysis.UsageMatrix(analysis.RecordsOfCar(x.Records, car), e.ctx)
		fmt.Fprintln(b, textplot.Matrix(fmt.Sprintf("car %d (%d)", i+1, car), &m))
	}
}

// missing prints, under a record-level figure's title, why its
// exhibits could not be drawn, and reports whether it did.
func missing(b *strings.Builder, x *analysis.Exhibits) bool {
	if x.Missing == "" {
		return false
	}
	fmt.Fprintf(b, "(%s)\n\n", x.Missing)
	return true
}

func textUsage(b *strings.Builder, e *env) {
	fmt.Fprintln(b, "== Fleet usage: 24×7 matrix over all cars ==")
	fmt.Fprintln(b, textplot.Matrix(
		fmt.Sprintf("aggregate sessions touching each hour of the week (%d sessions)", e.r.UsageSessions),
		&e.r.FleetUsage))
}

func textDays(b *strings.Builder, e *env) {
	fmt.Fprintln(b, "== Figure 6: days on network ==")
	fmt.Fprintln(b, textplot.Histogram("cars per day-count", e.r.DaysHist.Counts, 72, 8))
}

func textSegments(b *strings.Builder, e *env) {
	fmt.Fprintln(b, "== Table 2: car segmentation ==")
	fmt.Fprintln(b, analysis.FormatTable2(e.r.Segments))
}

func textBusy(b *strings.Builder, e *env) {
	busy := e.r.Busy
	fmt.Fprintln(b, "== Figure 7: time in busy cells ==")
	fmt.Fprintf(b, "cars > 50%% busy time: %.2f%%; cars ~100%%: %.2f%%\n", busy.OverHalf*100, busy.AllBusy*100)
	h := busy.Histogram7a()
	labels := make([]string, len(h))
	for i := range h {
		labels[i] = fmt.Sprintf("%d-%d%%", i*10, (i+1)*10)
	}
	fmt.Fprintln(b, textplot.Bars("proportion of cars by busy-time decile", labels, h[:], 40))
}

func textFigure8(b *strings.Builder, e *env) {
	fmt.Fprintln(b, "== Figure 8: one cell, 24 hours ==")
	x := e.opts.Exhibits
	if missing(b, x) || x.Cell.IsZero() {
		return
	}
	cell, day := x.Cell, x.Day
	cd := analysis.CellDay(x.Records, e.ctx, cell, day)
	fmt.Fprintf(b, "cell %v day %d: %d cars, peak 15-min concurrency %d\n",
		cell, day, cd.UniqueCars, cd.PeakCars)
	// One timeline row per car, in first-seen order.
	row := map[cdr.CarID]int{}
	var spans [][][2]float64
	dayStart := e.ctx.Period.DayStart(day)
	for _, sp := range cd.Spans {
		i, ok := row[sp.Car]
		if !ok {
			i = len(spans)
			row[sp.Car] = i
			spans = append(spans, nil)
		}
		spans[i] = append(spans[i], [2]float64{
			sp.Start.Sub(dayStart).Hours() / 24,
			sp.End.Sub(dayStart).Hours() / 24,
		})
	}
	fmt.Fprintln(b, textplot.Timeline("connections", spans, 72, 40))
}

func textDurations(b *strings.Builder, e *env) {
	d := e.r.Durations
	fmt.Fprintln(b, "== Figure 9: per-cell connection durations ==")
	fmt.Fprintf(b, "median %.0f s, p73 %.0f s, mean full %.0f s, mean truncated %.0f s\n",
		d.Median, d.P73, d.FullMean, d.TruncMean)
	if d.NotWhole != 0 {
		fmt.Fprintf(b, "%d records not whole seconds: counted at their floor, a negative one at 0 s\n", d.NotWhole)
	}
	xs, ps := d.Truncated.Points(72)
	fmt.Fprintln(b, textplot.Chart("CDF of durations (truncated)", xs, ps, 72, 8))
}

// textClusters renders Figure 11 from the clusters stage and, when the
// exhibits and the load source are at hand, Figure 10's two sample
// radios above it.
func textClusters(b *strings.Builder, e *env) {
	cl := e.r.Clusters
	if e.opts.Exhibits != nil && e.ctx.Load != nil {
		fmt.Fprintln(b, "== Figure 10: two sample busy radios over a week ==")
		for i := 0; i < 2 && i < len(cl.Cells); i++ {
			cw := analysis.CellWeek(e.opts.Exhibits.Records, e.ctx, cl.Cells[i], 0)
			fmt.Fprintln(b, textplot.WeekSeries(fmt.Sprintf("cell %v", cw.Cell),
				cw.Concurrency[:], cw.Utilization[:], 96, 6))
		}
	}
	fmt.Fprintln(b, "== Figure 11: k-means clusters over busy radios ==")
	fmt.Fprintf(b, "clusters: sizes %v, centroid peak ratio %.1fx\n", cl.Sizes, cl.PeakRatio())
	for c, centroid := range cl.Centroids {
		fmt.Fprintln(b, textplot.Chart(fmt.Sprintf("cluster %d centroid (cars by time of day)", c+1),
			hoursAxis(96), centroid, 72, 6))
	}
}

func textHandovers(b *strings.Builder, e *env) {
	h := e.r.Handovers
	fmt.Fprintln(b, "== §4.5: handovers per mobility session ==")
	fmt.Fprintf(b, "sessions %d | handovers median %.0f, p70 %.0f, p90 %.0f | inter-BS share %.1f%%\n",
		h.Sessions, h.Median, h.P70, h.P90, h.InterBSShare()*100)
	for kind := radio.HandoverKind(0); kind < radio.NumHandoverKinds; kind++ {
		if count, ok := h.ByKind[kind]; ok {
			fmt.Fprintf(b, "  %-22s %d\n", kind, count)
		}
	}
	fmt.Fprintln(b)
}

func textCarriers(b *strings.Builder, e *env) {
	fmt.Fprintln(b, "== Table 3: carrier use ==")
	fmt.Fprintln(b, analysis.FormatTable3(e.r.Carriers))
}

// textProfile renders the per-stage cost table of an observed run:
// where the time went, stage by stage. Add ran on ProfileWorkers
// concurrent workers and its column sums their seconds; merge and
// finalize ran once, after them. The title line stays as it is — tools
// that cut the timing-bearing block out of a report anchor on it — so
// the worker count ends the column line. A run that checkpointed says
// below the table what its cuts cost: how long they kept ingest waiting
// and what they wrote.
func textProfile(b *strings.Builder, e *env) {
	workers := e.r.ProfileWorkers
	fmt.Fprintln(b, "== Pipeline profile ==")
	fmt.Fprintf(b, "%-10s %12s %8s %10s %10s %10s %12s   (workers %d)\n",
		"stage", "records", "batches", "add cpu-s", "merge s", "final s", "rec/s", workers)
	var add, merge, fin float64
	for _, p := range e.r.Profile {
		fmt.Fprintf(b, "%-10s %12d %8d %10.4f %10.4f %10.4f %12s\n",
			p.Stage, p.Records, p.Batches, p.AddSeconds, p.MergeSeconds, p.FinalizeSeconds, stageRate(p, workers, "-"))
		add += p.AddSeconds
		merge += p.MergeSeconds
		fin += p.FinalizeSeconds
	}
	fmt.Fprintf(b, "%-10s %12s %8s %10.4f %10.4f %10.4f\n", "total", "", "", add, merge, fin)
	// Inside the block, before its blank line: the tools cut to there.
	if ck := e.r.ProfileCheckpoints; ck.Cuts > 0 {
		fmt.Fprintf(b, "checkpoints %d, stalled %.4f s, written %.2f MB\n", ck.Cuts, ck.StallSeconds, float64(ck.Bytes)/1e6)
	}
	fmt.Fprintln(b)
}

// stageRate formats a stage's records per second of the elapsed time
// it accounts for — Add's worker-seconds divided among the workers,
// plus merge and finalize — or none when the stage saw no records or
// took no measurable time.
func stageRate(p analysis.StageProfile, workers int, none string) string {
	if wall := p.WallSeconds(workers); wall > 0 && p.Records > 0 {
		return fmt.Sprintf("%.0f", float64(p.Records)/wall)
	}
	return none
}

// textQuality renders the Data Quality block: how dirty the input was,
// which shards a distributed run had to leave out, which days look
// like collection loss and which stages were skipped — a degraded run
// must name the holes in its coverage.
func textQuality(b *strings.Builder, q *analysis.DataQuality) {
	fmt.Fprintln(b, "== Data Quality ==")
	fmt.Fprintln(b, q.Summary())
	for _, class := range sortedClasses(q) {
		fmt.Fprintf(b, "  quarantined %-12s %d\n", class, q.Quarantined[class])
	}
	for _, ex := range q.ExcludedShards {
		approx := ""
		if ex.Estimated {
			approx = "~"
		}
		fmt.Fprintf(b, "  EXCLUDED shard %d after %d attempts (%s: %s): %s%d records lost\n",
			ex.Shard, ex.Attempts, ex.LastClass, ex.LastErr, approx, ex.Records)
	}
	for _, g := range q.Gaps {
		fmt.Fprintf(b, "  coverage gap day %d (%s): %.1f%% of cars vs median %.1f%%\n",
			g.Day, g.Date.Format("2006-01-02"), g.CarsFrac*100, g.Baseline*100)
	}
	for _, s := range q.StageErrors {
		fmt.Fprintf(b, "  skipped stage %s: %s\n", s.Stage, s.Err)
	}
	fmt.Fprintln(b)
}
