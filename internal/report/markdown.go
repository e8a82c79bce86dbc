package report

import (
	"fmt"
	"strings"

	"cellcars/internal/analysis"
	"cellcars/internal/radio"
	"cellcars/internal/simtime"
	"cellcars/internal/textplot"
)

// The Markdown renderers, one per row of sections: every table as a
// Markdown table, every figure as a fenced text plot, the paper's
// reference values alongside.

func mdPreprocessing(b *strings.Builder, e *env) {
	r := e.r
	fmt.Fprintf(b, "## Preprocessing (§3)\n\n")
	fmt.Fprintf(b, "| metric | value |\n|---|---|\n")
	fmt.Fprintf(b, "| raw records | %d |\n", r.RawRecords)
	fmt.Fprintf(b, "| after ghost removal | %d |\n", r.CleanRecords)
	fmt.Fprintf(b, "| one-hour ghosts dropped | %d |\n", r.RawRecords-r.CleanRecords)
	fmt.Fprintf(b, "| outside the study period | %d |\n\n", r.OutOfPeriod)
}

func mdPresence(b *strings.Builder, e *env) {
	r := e.r
	fmt.Fprintf(b, "## Table 1 — daily presence by weekday (Figure 2)\n\n")
	fmt.Fprintf(b, "Paper: Mon–Thu 78–80%% cars, Sat 70.3%%, Sun 67.4%%, overall 76.0%%.\n\n")
	fmt.Fprintf(b, "| day | %%cells mean | %%cells std | %%cars mean | %%cars std |\n|---|---|---|---|---|\n")
	for _, row := range r.WeekdayRows {
		fmt.Fprintf(b, "| %s | %.1f%% | %.1f%% | %.1f%% | %.1f%% |\n",
			row.Label, row.CellsMean*100, row.CellsStd*100, row.CarsMean*100, row.CarsStd*100)
	}
	fmt.Fprintf(b, "\nTrend lines: cars %.5f %+.6f/day (R²=%.3f); cells %.5f %+.6f/day (R²=%.3f).\n\n",
		r.Presence.CarsTrend.Intercept, r.Presence.CarsTrend.Slope, r.Presence.CarsTrend.R2,
		r.Presence.CellsTrend.Intercept, r.Presence.CellsTrend.Slope, r.Presence.CellsTrend.R2)
}

func mdConnected(b *strings.Builder, e *env) {
	c := e.r.Connected
	fmt.Fprintf(b, "## Figure 3 — total time on network\n\n")
	fmt.Fprintf(b, "Paper: mean 8%% full / 4%% truncated; p99.5 27%% / 15%%.\n\n")
	fmt.Fprintf(b, "| variant | mean | p99.5 |\n|---|---|---|\n")
	fmt.Fprintf(b, "| full | %.2f%% | %.1f%% |\n", c.FullMean*100, c.FullP995*100)
	fmt.Fprintf(b, "| truncated 600 s | %.2f%% | %.1f%% |\n\n", c.TruncMean*100, c.TruncP995*100)
	if c.Truncated != nil && c.Truncated.N() > 1 {
		xs, ps := c.Truncated.Points(64)
		fmt.Fprintf(b, "```\n%s```\n\n", textplot.Chart("CDF of per-car connected share (truncated)", xs, ps, 64, 8))
	}
}

func mdUsage(b *strings.Builder, e *env) {
	fmt.Fprintf(b, "## Fleet usage — 24×7 matrix over all cars\n\n")
	fmt.Fprintf(b, "The Figure 5 encoding aggregated over the fleet: aggregate sessions touching each local hour of the week, %d sessions in all.\n\n", e.r.UsageSessions)
	fmt.Fprintf(b, "```\n%s```\n\n", textplot.Matrix("sessions per hour of week", &e.r.FleetUsage))
}

func mdDays(b *strings.Builder, e *env) {
	fmt.Fprintf(b, "## Figure 6 — days on network\n\n")
	fmt.Fprintf(b, "Paper: sharp drop below 10 days, rising trend past 30.\n\n")
	fmt.Fprintf(b, "```\n%s```\n\n",
		textplot.Histogram(fmt.Sprintf("cars per day count (1..%d)", e.ctx.Period.Days()),
			e.r.DaysHist.Counts, 64, 8))
}

func mdSegments(b *strings.Builder, e *env) {
	fmt.Fprintf(b, "## Table 2 — car segmentation\n\n")
	fmt.Fprintf(b, "Paper: rare ≤10 d 2.2%%, ≤30 d 9.9%%; busy column 0.4–1.3%%.\n\n")
	fmt.Fprintf(b, "| segment | busy | non-busy | both | total |\n|---|---|---|---|---|\n")
	for _, s := range e.r.Segments {
		fmt.Fprintf(b, "| rare (≤ %d days) | %.1f%% | %.1f%% | %.1f%% | %.1f%% |\n",
			s.RareDays, s.RareBusy*100, s.RareNonBusy*100, s.RareBoth*100, s.RareTotal()*100)
		fmt.Fprintf(b, "| common (%d+ days) | %.1f%% | %.1f%% | %.1f%% | %.1f%% |\n",
			s.RareDays, s.CommonBusy*100, s.CommonNonBusy*100, s.CommonBoth*100, s.CommonTotal()*100)
	}
	b.WriteString("\n")
}

func mdBusy(b *strings.Builder, e *env) {
	busy := e.r.Busy
	fmt.Fprintf(b, "## Figure 7 — time in busy cells\n\n")
	fmt.Fprintf(b, "Paper: ~2.4%% of cars over 50%%; ~1%% at ~100%%. Measured: %.2f%% over 50%%, %.2f%% at ~100%%.\n\n",
		busy.OverHalf*100, busy.AllBusy*100)
	fmt.Fprintf(b, "| busy-time decile | share of cars |\n|---|---|\n")
	for i, v := range busy.Histogram7a() {
		fmt.Fprintf(b, "| %d–%d%% | %.2f%% |\n", i*10, (i+1)*10, v*100)
	}
	b.WriteString("\n")
}

func mdDurations(b *strings.Builder, e *env) {
	d := e.r.Durations
	fmt.Fprintf(b, "## Figure 9 — per-cell connection durations\n\n")
	fmt.Fprintf(b, "Paper: median 105 s, p73 600 s, mean 625 s full / 238 s truncated.\n\n")
	fmt.Fprintf(b, "| metric | measured |\n|---|---|\n")
	fmt.Fprintf(b, "| median | %.0f s |\n| p73 | %.0f s |\n| mean full | %.0f s |\n| mean truncated | %.0f s |\n\n",
		d.Median, d.P73, d.FullMean, d.TruncMean)
	if d.NotWhole != 0 {
		fmt.Fprintf(b, "%d records not whole seconds: counted at their floor, a negative one at 0 s.\n\n", d.NotWhole)
	}
}

func mdClusters(b *strings.Builder, e *env) {
	cl := e.r.Clusters
	fmt.Fprintf(b, "## Figure 11 — busy-radio clusters\n\n")
	fmt.Fprintf(b, "Paper: two clusters; the hot one ~5× the concurrency, the quiet one ~4× the cells.\n\n")
	fmt.Fprintf(b, "| cluster | cells | centroid peak (cars) |\n|---|---|---|\n")
	for i := range cl.Sizes {
		peak := 0.0
		for _, x := range cl.Centroids[i] {
			peak = max(peak, x)
		}
		fmt.Fprintf(b, "| %d | %d | %.1f |\n", i+1, cl.Sizes[i], peak)
	}
	fmt.Fprintf(b, "\nPeak ratio %.1f×.\n\n", cl.PeakRatio())
	for i, c := range cl.Centroids {
		fmt.Fprintf(b, "```\n%s```\n\n", textplot.Chart(
			fmt.Sprintf("cluster %d centroid (mean concurrent cars by hour of day)", i+1),
			hoursAxis(simtime.BinsPerDay), c, 64, 6))
	}
}

func mdHandovers(b *strings.Builder, e *env) {
	h := e.r.Handovers
	fmt.Fprintf(b, "## §4.5 — handovers per mobility session\n\n")
	fmt.Fprintf(b, "Paper: median 2, p70 4, p90 9; inter-base-station dominant.\n\n")
	fmt.Fprintf(b, "| metric | measured |\n|---|---|\n")
	fmt.Fprintf(b, "| sessions | %d |\n| median | %.0f |\n| p70 | %.0f |\n| p90 | %.0f |\n| inter-BS share | %.1f%% |\n\n",
		h.Sessions, h.Median, h.P70, h.P90, h.InterBSShare()*100)
	fmt.Fprintf(b, "| kind | count |\n|---|---|\n")
	for kind := radio.HandoverKind(0); kind < radio.NumHandoverKinds; kind++ {
		if kind == radio.HandoverNone {
			continue
		}
		fmt.Fprintf(b, "| %s | %d |\n", kind, h.ByKind[kind])
	}
	b.WriteString("\n")
}

func mdCarriers(b *strings.Builder, e *env) {
	fmt.Fprintf(b, "## Table 3 — carrier use\n\n")
	fmt.Fprintf(b, "Paper: cars %% = 98.7/89.2/98.7/80.8/0.006; time %% = 18.6/7.4/51.9/22.1/0.0.\n\n")
	fmt.Fprintf(b, "| carrier | C1 | C2 | C3 | C4 | C5 |\n|---|---|---|---|---|---|\n")
	fmt.Fprintf(b, "| cars %% |")
	for c := radio.C1; c <= radio.C5; c++ {
		fmt.Fprintf(b, " %.3f |", e.r.Carriers.CarsFrac[c]*100)
	}
	fmt.Fprintf(b, "\n| time %% |")
	for c := radio.C1; c <= radio.C5; c++ {
		fmt.Fprintf(b, " %.3f |", e.r.Carriers.TimeFrac[c]*100)
	}
	b.WriteString("\n\n")
}

// mdProfile writes the per-stage cost table an observed run carries
// (analysis.RunOptions.Obs). The record counts reconcile with the
// Preprocessing totals: every live stage sees exactly the accepted
// records, i.e. clean records minus the out-of-period exclusions.
func mdProfile(b *strings.Builder, e *env) {
	r := e.r
	fmt.Fprintf(b, "## Pipeline profile\n\n")
	workers := r.ProfileWorkers
	fmt.Fprintf(b, "Workers: %d. Add ran on that many concurrent workers and `add cpu-s` sums their seconds; merge and finalize ran once, after them; `wall s` and `records/s` count Add once per worker (add cpu-s ÷ %d + merge s + finalize s). Records are the accepted records offered to each stage's Add path (clean records %d − out-of-period %d = %d).\n\n",
		workers, workers, r.CleanRecords, r.OutOfPeriod, int64(r.CleanRecords)-r.OutOfPeriod)
	fmt.Fprintf(b, "| stage | records | batches | add cpu-s | merge s | finalize s | wall s | records/s |\n|---|---|---|---|---|---|---|---|\n")
	var recs, batches int64
	var add, merge, fin, wall float64
	for _, p := range r.Profile {
		fmt.Fprintf(b, "| %s | %d | %d | %.4f | %.4f | %.4f | %.4f | %s |\n",
			p.Stage, p.Records, p.Batches, p.AddSeconds, p.MergeSeconds,
			p.FinalizeSeconds, p.WallSeconds(workers), stageRate(p, workers, "—"))
		recs += p.Records
		batches += p.Batches
		add += p.AddSeconds
		merge += p.MergeSeconds
		fin += p.FinalizeSeconds
		wall += p.WallSeconds(workers)
	}
	fmt.Fprintf(b, "| **total** | %d | %d | %.4f | %.4f | %.4f | %.4f | — |\n\n",
		recs, batches, add, merge, fin, wall)
	if ck := r.ProfileCheckpoints; ck.Cuts > 0 {
		fmt.Fprintf(b, "Checkpoints: %d cuts kept ingest waiting %.4f s in all and wrote %.2f MB.\n\n",
			ck.Cuts, ck.StallSeconds, float64(ck.Bytes)/1e6)
	}
}

// mdQuality writes the Data Quality section: how dirty the input was
// and what the pipeline did about it.
func mdQuality(b *strings.Builder, q *analysis.DataQuality) {
	fmt.Fprintf(b, "## Data Quality\n\n")
	fmt.Fprintf(b, "| metric | value |\n|---|---|\n")
	fmt.Fprintf(b, "| records read | %d |\n", q.RecordsRead)
	fmt.Fprintf(b, "| one-hour ghosts dropped | %d |\n", q.GhostsDropped)
	fmt.Fprintf(b, "| quarantined | %d |\n", q.QuarantinedTotal)
	fmt.Fprintf(b, "| coverage-gap days | %d |\n\n", len(q.Gaps))
	if len(q.Quarantined) > 0 {
		fmt.Fprintf(b, "Quarantine breakdown:\n\n| class | records |\n|---|---|\n")
		for _, class := range sortedClasses(q) {
			fmt.Fprintf(b, "| %s | %d |\n", class, q.Quarantined[class])
		}
		b.WriteString("\n")
	}
	if len(q.Gaps) > 0 {
		fmt.Fprintf(b, "Detected coverage gaps (paper §3 reports a 3-day partial data-loss window, visible as the Figure 2 dip):\n\n")
		fmt.Fprintf(b, "| day | date | %%cars seen | period median |\n|---|---|---|---|\n")
		for _, g := range q.Gaps {
			fmt.Fprintf(b, "| %d | %s | %.1f%% | %.1f%% |\n",
				g.Day, g.Date.Format("2006-01-02"), g.CarsFrac*100, g.Baseline*100)
		}
		b.WriteString("\n")
	}
	if len(q.StageErrors) > 0 {
		fmt.Fprintf(b, "Skipped analysis stages:\n\n| stage | error |\n|---|---|\n")
		for _, s := range q.StageErrors {
			fmt.Fprintf(b, "| %s | %s |\n", s.Stage, s.Err)
		}
		b.WriteString("\n")
	}
	if len(q.ExcludedShards) > 0 {
		fmt.Fprintf(b, "**Excluded shards.** The coordinator quarantined %d shard(s) after exhausting their attempt budget; their cars are absent from every figure above.\n\n", len(q.ExcludedShards))
		fmt.Fprintf(b, "| shard | attempts | last failure | records lost |\n|---|---|---|---|\n")
		for _, x := range q.ExcludedShards {
			records := fmt.Sprintf("%d", x.Records)
			if x.Estimated {
				records = "~" + records + " (estimated)"
			}
			failure := x.LastClass
			if x.LastErr != "" {
				failure += ": " + x.LastErr
			}
			fmt.Fprintf(b, "| %d | %d | %s | %s |\n", x.Shard, x.Attempts, failure, records)
		}
		b.WriteString("\n")
	}
}
