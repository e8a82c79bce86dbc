// Command caranalyze runs the full measurement pipeline and prints
// every table and figure of the paper.
//
// Two modes:
//
//	caranalyze -cars 2000 -days 28          # self-contained: generate + analyze
//	caranalyze -in cars.cdr -days 28        # analyze an existing CDR file
//
// In file mode the per-cell PRB load source is unavailable, so the
// busy-cell analyses (Table 2, Figures 7/10/11, and Figure 1) are
// skipped; everything else runs from the records alone.
//
// Distributed and restartable runs:
//
//	cardrive -shards 8 day1.cdr day2.cdr         # coordinator: shard, retry, merge
//	caranalyze -partial s3.snap -shard 3/8 day1.cdr day2.cdr  # one worker by hand
//	carmerge shard*.snap                         # reduce: merge + finalize
//	caranalyze -in big.csv -stream -checkpoint run.snap -resume
//
// -partial accumulates a car-hash shard without finalizing and writes
// a snapshot mergeable by carmerge; it scans every listed input and
// keeps the records whose car falls in -shard s/S (all of them by
// default). cardrive drives fleets of such workers with retries,
// speculation and quarantine. -checkpoint makes a streaming run
// durable: state is saved every -checkpoint-every records and on
// SIGTERM/SIGINT, and -resume picks up from the saved watermark.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"cellcars/internal/analysis"
	"cellcars/internal/cdr"
	"cellcars/internal/drive"
	"cellcars/internal/load"
	"cellcars/internal/obs"
	"cellcars/internal/query"
	"cellcars/internal/radio"
	"cellcars/internal/report"
	"cellcars/internal/simtime"
	"cellcars/internal/synth"
	"cellcars/internal/textplot"
)

func main() {
	var (
		in      = flag.String("in", "", "CDR file to analyze (empty: generate a scene)")
		cars    = flag.Int("cars", 2000, "fleet size (generate mode)")
		days    = flag.Int("days", 28, "study length in days")
		seed    = flag.Uint64("seed", 1, "seed")
		world   = flag.Float64("world", 60, "world side length in km (generate mode)")
		start   = flag.String("start", "2017-01-02", "study start date (YYYY-MM-DD)")
		tz      = flag.Int("tz", -5, "local-time offset from UTC in hours")
		md      = flag.String("md", "", "also write a Markdown report to this file")
		asJSON  = flag.Bool("json", false, "with -in: print the full report as JSON (the exact bytes carqueryd's /report/full serves) instead of tables")
		stream  = flag.Bool("stream", false, "with -in: single-pass bounded-memory analysis")
		workers = flag.Int("workers", 1, "parallel analysis workers (records sharded by car)")

		strict     = flag.Bool("strict", false, "with -in: abort on the first malformed record")
		quarantine = flag.String("quarantine", "", "with -in: write quarantined records to this file (TSV)")
		budget     = flag.Float64("budget", 1.0, "with -in: error budget, max % of malformed records before aborting (0 aborts on the first, negative disables)")
		failStage  = flag.String("failstage", "", "chaos hook: artificially fail the named analysis stage")

		partial    = flag.String("partial", "", "accumulate the input into this partial snapshot (no report; merge with carmerge)")
		shardSpec  = flag.String("shard", "", "with -partial: \"s/S\" keeps only car-hash shard s of S (default: everything)")
		force      = flag.Bool("force", false, "overwrite an existing -partial snapshot file")
		checkpoint = flag.String("checkpoint", "", "with -stream: write periodic state checkpoints to this file (and on SIGTERM/SIGINT)")
		ckptEvery  = flag.Int64("checkpoint-every", 100_000, "with -checkpoint: records between periodic checkpoints (0: signal-only)")
		resume     = flag.Bool("resume", false, "with -checkpoint: restore state from the checkpoint file if it exists and skip past its watermark")

		debugAddr = flag.String("debug-addr", "", "serve /metrics (Prometheus text), /debug/vars (expvar) and /debug/pprof on this address while running")
		progress  = flag.Bool("progress", false, "print throughput/ETA progress lines to stderr while analyzing")
		progEvery = flag.Duration("progress-every", 5*time.Second, "with -progress: interval between progress lines")
		traceOut  = flag.String("trace", "", "write a JSONL span trace of the run to this file")
	)
	flag.Parse()
	// Input files may also be given positionally. -partial mode
	// accepts many (a worker scans all of them, keeping its car-hash
	// shard); every other mode takes exactly one.
	inputs := flag.Args()
	if *in != "" {
		inputs = append([]string{*in}, inputs...)
	}
	if *partial == "" {
		if len(inputs) > 1 {
			fatal("multiple input files need -partial mode")
		}
		if len(inputs) == 1 {
			*in = inputs[0]
		}
	}

	startDay, err := time.Parse("2006-01-02", *start)
	if err != nil {
		fatal("bad -start date: %v", err)
	}
	period := simtime.NewPeriod(startDay, *days)

	// Resilient ingest: quarantine malformed records instead of dying
	// on them, within an error budget. Records dated far outside the
	// study window are treated as corrupt too (a week of slack keeps
	// boundary spillover out of quarantine).
	ingest := cdr.ResilientConfig{
		// A zero budget means zero tolerance, not "use the default":
		// the first malformed record aborts, same as -strict.
		Strict:     *strict || *budget == 0,
		MaxBadFrac: *budget / 100,
		MinStart:   period.Start().AddDate(0, 0, -7),
		MaxStart:   period.End().AddDate(0, 0, 7),
	}
	if *quarantine != "" {
		qf, err := os.Create(*quarantine)
		if err != nil {
			fatal("open quarantine file: %v", err)
		}
		qw := cdr.NewQuarantineWriter(qf)
		ingest.Sink = qw
		// Flush the quarantine file even on fatal exits: the audit
		// trail matters most when the run aborts.
		atExit = func() error {
			if err := qw.Close(); err != nil {
				return err
			}
			return qf.Close()
		}
	}
	// A lost audit trail is a failed run: propagate a close failure to
	// the exit code instead of pretending the file is whole. runAtExit
	// clears the hook first, so this fatal cannot re-enter the cleanup.
	defer func() {
		if err := runAtExit(); err != nil {
			fatal("close quarantine file: %v", err)
		}
	}()

	// The observability layer is always on for the CLI: a registry
	// costs nothing to keep and lets -debug-addr expose a live run.
	reg := obs.New()
	ingest.Obs = reg
	if *debugAddr != "" {
		srv, err := obs.Serve(*debugAddr, reg)
		if err != nil {
			fatal("debug server: %v", err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "caranalyze: debug server on http://%s (/metrics, /debug/vars, /debug/pprof)\n", srv.Addr())
	}
	var trace *obs.Trace
	if *traceOut != "" {
		tf, err := os.Create(*traceOut)
		if err != nil {
			fatal("open trace file: %v", err)
		}
		trace = obs.NewTrace(tf)
		defer func() {
			if err := trace.Err(); err != nil {
				fatal("write trace: %v", err)
			}
			if err := tf.Close(); err != nil {
				fatal("close trace file: %v", err)
			}
		}()
	}
	if *progress {
		prog := obs.NewProgress(os.Stderr, "records", *progEvery, totalRecordsHint(inputs), progressCurrent(reg))
		prog.Start()
		defer prog.Stop()
	}

	var records []cdr.Record
	var istats cdr.IngestStats
	ctx := analysis.Context{Period: period, TZOffsetSeconds: *tz * 3600}
	opts := analysis.RunOptions{Seed: *seed, FailStage: *failStage, Workers: *workers, Obs: reg}
	// Scale the rare thresholds with the study length (10 and 30 of 90).
	rare := []int{max(1, *days/9), max(2, *days/3)}
	var model *load.Model

	if *partial != "" {
		if len(inputs) == 0 {
			fatal("-partial needs input files (-in or positional arguments)")
		}
		if !*force {
			if _, err := os.Stat(*partial); err == nil {
				fatal("%s exists; use -force to overwrite", *partial)
			}
		}
		shard, shards, err := parseShard(*shardSpec)
		if err != nil {
			fatal("%v", err)
		}
		chaos, attempt, err := drive.ChaosFromEnv()
		if err != nil {
			fatal("%v", err)
		}
		sopts := analysis.RunOptions{Seed: *seed, RareDays: rare, Obs: reg}
		st, err := drive.RunWorker(drive.WorkerConfig{
			Inputs:  inputs,
			Shard:   shard,
			Shards:  shards,
			Attempt: attempt,
			Out:     *partial,
			Ctx:     ctx,
			Opts:    sopts,
			Ingest:  ingest,
			Chaos:   chaos,
		})
		if err != nil {
			fatal("partial: %v", err)
		}
		// The machine-readable line a cardrive coordinator parses.
		drive.PrintStats(os.Stdout, st)
		fmt.Printf("wrote partial state of %d records (%d quarantined) to %s; merge with carmerge or run under cardrive\n",
			st.Records, st.Quarantined, *partial)
		return
	}

	// Flag combinations that would otherwise be silently ignored.
	switch {
	case *asJSON && (*md != "" || *checkpoint != "" || *resume):
		fatal("-json prints only the JSON report; -md, -checkpoint and -resume do not apply")
	case (*checkpoint != "" || *resume) && !(*stream && *in != ""):
		fatal("-checkpoint and -resume need -stream mode")
	case *resume && *checkpoint == "":
		fatal("-resume needs -checkpoint (the file to resume from)")
	}

	if *asJSON {
		// The byte-comparable batch twin of carqueryd: one untracked
		// streaming pass with the daemon's options — no Obs, so the
		// report carries no Profile timings — rendered through the
		// same query.MarshalReport the daemon's /report/full uses.
		if *in == "" {
			fatal("-json needs -in (file mode)")
		}
		rr, closer, err := openInput(*in, ingest)
		if err != nil {
			fatal("open %s: %v", *in, err)
		}
		defer closer.Close()
		s := analysis.NewStreamingWithOptions(ctx, analysis.RunOptions{Seed: *seed, RareDays: rare})
		if err := s.AddAll(rr); err != nil {
			fatal("stream %s: %v", *in, err)
		}
		srep := s.Finalize()
		body, err := query.MarshalReport(&srep)
		if err != nil {
			fatal("marshal report: %v", err)
		}
		os.Stdout.Write(body)
		return
	}

	var rep *analysis.Report
	runStart := time.Now()
	if *in != "" && *stream {
		cfg := analysis.CheckpointConfig{Path: *checkpoint, Every: *ckptEvery, Resume: *resume}
		sopts := analysis.RunOptions{Seed: *seed, RareDays: rare, Workers: *workers,
			FailStage: *failStage, Obs: reg}
		rep, istats, err = runStreaming(*in, ctx, sopts, ingest, cfg)
		switch {
		case errors.Is(err, analysis.ErrCheckpointStop):
			fmt.Fprintf(os.Stderr, "caranalyze: interrupted; state saved to %s (re-run with -resume to continue)\n", *checkpoint)
			return
		case err != nil:
			fatal("stream %s: %v", *in, err)
		}
		fmt.Printf("streamed %d records from %s (%d quarantined, %d workers)\n\n",
			rep.RawRecords, *in, istats.QuarantinedTotal(), max(1, *workers))
	} else {
		if *in != "" {
			records, istats, err = readFile(*in, ingest)
			if err != nil {
				fatal("read %s: %v", *in, err)
			}
			fmt.Printf("loaded %d records from %s (%d quarantined)\n\n",
				len(records), *in, istats.QuarantinedTotal())
		} else {
			cfg := synth.DefaultConfig(*cars)
			cfg.Seed = *seed
			cfg.WorldSizeKm = *world
			cfg.Period = period
			w := synth.NewWorld(cfg)
			var stats synth.Stats
			records, stats, err = w.GenerateAll()
			if err != nil {
				fatal("generate: %v", err)
			}
			model = w.Load
			ctx.Load = model
			opts.BusyCells = model.VeryBusyCells()
			istats.Read = int64(stats.Records)
			fmt.Printf("generated %d records (%d cars, %d stations, %d cells)\n\n",
				stats.Records, *cars, w.Net.NumStations(), w.Net.NumCells())
		}

		opts.RareDays = rare

		rep, err = analysis.Run(records, ctx, opts)
		if err != nil {
			fatal("analyze: %v", err)
		}
	}
	emitRunTrace(trace, rep, time.Since(runStart))

	sectionFailures := printReport(rep, ctx, records, model)

	quality := analysis.NewDataQuality(istats, int64(rep.RawRecords-rep.CleanRecords), rep.Presence, period)
	quality.StageErrors = rep.StageErrors
	for _, f := range sectionFailures {
		quality.StageErrors = append(quality.StageErrors, analysis.StageError{Stage: "print", Err: f})
	}
	printQuality(quality)

	if *md != "" {
		t0 := time.Now()
		desc := fmt.Sprintf("%d records over %d days (seed %d)", rep.RawRecords, *days, *seed)
		doc := report.Render(rep, ctx, report.Options{
			Title:            "cellcars reproduction report",
			SceneDescription: desc,
			Now:              time.Now(),
			Quality:          quality,
		})
		if err := os.WriteFile(*md, []byte(doc), 0o644); err != nil {
			fatal("write %s: %v", *md, err)
		}
		trace.Emit("report", time.Since(t0), 0)
		fmt.Printf("wrote Markdown report to %s\n", *md)
	}
}

// atExit is the registered cleanup hook (quarantine flush); nil when
// nothing is registered. Both the normal exit path and fatal run it —
// exactly once — via runAtExit.
var atExit func() error

// runAtExit runs and clears the cleanup hook, so a fatal raised from
// the hook's own error path cannot re-enter it.
func runAtExit() error {
	fn := atExit
	atExit = nil
	if fn == nil {
		return nil
	}
	return fn()
}

// emitRunTrace writes the analyze span plus one span per profiled
// stage, converting the report's cost table into the JSONL trace.
func emitRunTrace(t *obs.Trace, rep *analysis.Report, elapsed time.Duration) {
	t.Emit("analyze", elapsed, int64(rep.RawRecords))
	for _, p := range rep.Profile {
		t.Emit("stage:"+p.Stage, time.Duration(p.TotalSeconds()*float64(time.Second)), p.Records)
	}
}

// printReport prints every table and figure, each section isolated:
// a section whose analysis stage failed — or whose own rendering
// panics — prints a diagnostic and is skipped, and every other
// section still appears. It returns the list of section failures.
func printReport(r *analysis.Report, ctx analysis.Context, records []cdr.Record, model *load.Model) []string {
	var failed []string
	// sec runs one print section; stage names the analysis.Run stage
	// it depends on ("" for sections computed here from raw records).
	sec := func(name, stage string, fn func()) {
		if stage != "" {
			if f := r.Failed(stage); f != nil {
				fmt.Printf("!! %s skipped: analysis stage %q failed: %s\n\n", name, f.Stage, f.Err)
				failed = append(failed, fmt.Sprintf("%s: stage %s: %s", name, f.Stage, f.Err))
				return
			}
		}
		defer func() {
			if p := recover(); p != nil {
				fmt.Printf("\n!! %s skipped: %v\n\n", name, p)
				failed = append(failed, fmt.Sprintf("%s: panic: %v", name, p))
			}
		}()
		fn()
	}

	fmt.Printf("== Preprocessing (§3) ==\n")
	fmt.Printf("raw records %d, after ghost removal %d (%d one-hour ghosts dropped, %d outside the study period)\n\n",
		r.RawRecords, r.CleanRecords, r.RawRecords-r.CleanRecords, r.OutOfPeriod)

	sec("Figure 1", "", func() { printFigure1(ctx, records, model) })

	sec("Figure 2 / Table 1", "presence", func() {
		fmt.Println("== Figure 2 / Table 1: daily presence ==")
		fmt.Printf("population: %d cars, %d cells touched\n", r.Presence.TotalCars, r.Presence.TotalCells)
		fmt.Printf("cars trend:  %.5f + %.6f/day (R² = %.3f)\n",
			r.Presence.CarsTrend.Intercept, r.Presence.CarsTrend.Slope, r.Presence.CarsTrend.R2)
		fmt.Printf("cells trend: %.5f + %.6f/day (R² = %.3f)\n",
			r.Presence.CellsTrend.Intercept, r.Presence.CellsTrend.Slope, r.Presence.CellsTrend.R2)
		fmt.Println(textplot.Chart("% cars on network per day", dayAxis(len(r.Presence.CarsFrac)), r.Presence.CarsFrac, 72, 8))
		fmt.Println(analysis.FormatTable1(r.WeekdayRows))
	})

	sec("Figure 3", "connected", func() {
		fmt.Println("== Figure 3: total time on network (fraction of study) ==")
		fmt.Printf("means: full %.2f%%, truncated %.2f%% | p99.5: full %.1f%%, truncated %.1f%%\n",
			r.Connected.FullMean*100, r.Connected.TruncMean*100,
			r.Connected.FullP995*100, r.Connected.TruncP995*100)
		xs, ps := r.Connected.Truncated.Points(72)
		fmt.Println(textplot.Chart("CDF, truncated at 600 s/conn", xs, ps, 72, 8))
	})

	sec("Figure 4", "", func() {
		fmt.Println("== Figure 4: reference 24×7 matrices ==")
		commute, peak, weekend := analysis.ReferenceMatrices()
		fmt.Println(textplot.Matrix("commute peaks", &commute))
		fmt.Println(textplot.Matrix("network peaks", &peak))
		fmt.Println(textplot.Matrix("weekend", &weekend))
	})

	sec("Figure 5", "", func() {
		fmt.Println("== Figure 5: usage matrices of 3 sample cars ==")
		for i, car := range sampleCars(records, 3) {
			m := analysis.UsageMatrix(analysis.RecordsOfCar(records, car), ctx)
			fmt.Println(textplot.Matrix(fmt.Sprintf("car %d (%d)", i+1, car), &m))
		}
	})

	sec("Figure 6", "days", func() {
		fmt.Println("== Figure 6: days on network ==")
		fmt.Println(textplot.Histogram("cars per day-count", r.DaysHist.Counts, 72, 8))
	})

	if len(r.Segments) > 0 || r.Failed("segments") != nil {
		sec("Table 2", "segments", func() {
			fmt.Println("== Table 2: car segmentation ==")
			fmt.Println(analysis.FormatTable2(r.Segments))
		})
	}
	if len(r.Segments) > 0 || r.Failed("busy") != nil {
		sec("Figure 7", "busy", func() {
			fmt.Println("== Figure 7: time in busy cells ==")
			fmt.Printf("cars > 50%% busy time: %.2f%%; cars ~100%%: %.2f%%\n",
				r.Busy.OverHalf*100, r.Busy.AllBusy*100)
			h := r.Busy.Histogram7a()
			labels := make([]string, len(h))
			for i := range h {
				labels[i] = fmt.Sprintf("%d-%d%%", i*10, (i+1)*10)
			}
			fmt.Println(textplot.Bars("proportion of cars by busy-time decile", labels, h[:], 40))
		})
	}

	sec("Figure 8", "", func() {
		fmt.Println("== Figure 8: one cell, 24 hours ==")
		cell8, day8 := analysis.BusiestCellDay(records, ctx)
		if cell8.IsZero() {
			return
		}
		cd := analysis.CellDay(records, ctx, cell8, day8)
		fmt.Printf("cell %v day %d: %d cars, peak 15-min concurrency %d\n",
			cell8, day8, cd.UniqueCars, cd.PeakCars)
		spans := make([][][2]float64, 0, cd.UniqueCars)
		byCar := map[uint64][][2]float64{}
		dayStart := ctx.Period.DayStart(day8)
		var order []uint64
		for _, sp := range cd.Spans {
			id := uint64(sp.Car)
			if _, ok := byCar[id]; !ok {
				order = append(order, id)
			}
			byCar[id] = append(byCar[id], [2]float64{
				sp.Start.Sub(dayStart).Hours() / 24,
				sp.End.Sub(dayStart).Hours() / 24,
			})
		}
		for _, id := range order {
			spans = append(spans, byCar[id])
		}
		fmt.Println(textplot.Timeline("connections", spans, 72, 40))
	})

	sec("Figure 9", "durations", func() {
		fmt.Println("== Figure 9: per-cell connection durations ==")
		fmt.Printf("median %.0f s, p73 %.0f s, mean full %.0f s, mean truncated %.0f s\n",
			r.Durations.Median, r.Durations.P73, r.Durations.FullMean, r.Durations.TruncMean)
		xs, ps := r.Durations.Truncated.Points(72)
		fmt.Println(textplot.Chart("CDF of durations (truncated)", xs, ps, 72, 8))
	})

	if ctx.Load != nil && (len(r.Clusters.Cells) > 0 || r.Failed("clusters") != nil) {
		sec("Figures 10/11", "clusters", func() {
			fmt.Println("== Figure 10: two sample busy radios over a week ==")
			for i := 0; i < 2 && i < len(r.Clusters.Cells); i++ {
				cw := analysis.CellWeek(records, ctx, r.Clusters.Cells[i], 0)
				fmt.Println(textplot.WeekSeries(fmt.Sprintf("cell %v", cw.Cell),
					cw.Concurrency[:], cw.Utilization[:], 96, 6))
			}

			fmt.Println("== Figure 11: k-means clusters over busy radios ==")
			fmt.Printf("clusters: sizes %v, centroid peak ratio %.1fx\n",
				r.Clusters.Sizes, r.Clusters.PeakRatio())
			for c := 0; c < 2; c++ {
				fmt.Println(textplot.Chart(fmt.Sprintf("cluster %d centroid (cars by time of day)", c+1),
					binAxis(96), r.Clusters.Centroids[c], 72, 6))
			}
		})
	}

	sec("§4.5", "handovers", func() {
		fmt.Println("== §4.5: handovers per mobility session ==")
		fmt.Printf("sessions %d | handovers median %.0f, p70 %.0f, p90 %.0f | inter-BS share %.1f%%\n",
			r.Handovers.Sessions, r.Handovers.Median, r.Handovers.P70, r.Handovers.P90,
			r.Handovers.InterBSShare()*100)
		for k := 0; k < radio.NumHandoverKinds; k++ {
			kind := radio.HandoverKind(k)
			if count, ok := r.Handovers.ByKind[kind]; ok {
				fmt.Printf("  %-22s %d\n", kind, count)
			}
		}
		fmt.Println()
	})

	sec("Table 3", "carriers", func() {
		fmt.Println("== Table 3: carrier use ==")
		fmt.Println(analysis.FormatTable3(r.Carriers))
	})

	if len(r.Profile) > 0 {
		sec("Pipeline profile", "", func() { printProfile(r) })
	}

	return failed
}

// printProfile renders the per-stage cost table of an observed run:
// where the wall time went, stage by stage, summed across workers.
func printProfile(r *analysis.Report) {
	fmt.Println("== Pipeline profile ==")
	fmt.Printf("%-10s %12s %8s %10s %10s %10s %12s\n",
		"stage", "records", "batches", "add s", "merge s", "final s", "rec/s")
	var add, merge, fin float64
	for _, p := range r.Profile {
		rate := "-"
		if total := p.TotalSeconds(); total > 0 && p.Records > 0 {
			rate = fmt.Sprintf("%.0f", float64(p.Records)/total)
		}
		fmt.Printf("%-10s %12d %8d %10.4f %10.4f %10.4f %12s\n",
			p.Stage, p.Records, p.Batches, p.AddSeconds, p.MergeSeconds, p.FinalizeSeconds, rate)
		add += p.AddSeconds
		merge += p.MergeSeconds
		fin += p.FinalizeSeconds
	}
	fmt.Printf("%-10s %12s %8s %10.4f %10.4f %10.4f\n\n", "total", "", "", add, merge, fin)
}

// printFigure1 renders the load-model saturation demonstration; it
// needs the synthetic load model and is skipped in file mode.
func printFigure1(ctx analysis.Context, records []cdr.Record, model *load.Model) {
	if model == nil {
		return
	}
	fmt.Println("== Figure 1: single greedy download saturates a cell ==")
	cells := model.VeryBusyCells()
	if len(cells) < 2 {
		// Any two cells will do for the demonstration.
		all := allCells(records)
		if len(all) >= 2 {
			cells = all[:2]
		}
	}
	if len(cells) >= 2 {
		sat := load.Saturate(model, cells[:2], ctx.Period.Days()/2,
			20*time.Hour+45*time.Minute, 4*time.Hour, 0.97)
		for i := range sat.Cells {
			fmt.Println(textplot.Chart(
				fmt.Sprintf("cell %v: test day (download from 20:45)", sat.Cells[i]),
				binAxis(96), sat.Test[i][:], 72, 8))
		}
	}
	fmt.Println()
}

// printQuality renders the Data Quality summary to the terminal.
func printQuality(q *analysis.DataQuality) {
	fmt.Println("== Data Quality ==")
	fmt.Println(q.Summary())
	classes := make([]string, 0, len(q.Quarantined))
	for class := range q.Quarantined {
		classes = append(classes, class)
	}
	sort.Strings(classes)
	for _, class := range classes {
		fmt.Printf("  quarantined %-12s %d\n", class, q.Quarantined[class])
	}
	for _, g := range q.Gaps {
		fmt.Printf("  coverage gap day %d (%s): %.1f%% of cars vs median %.1f%%\n",
			g.Day, g.Date.Format("2006-01-02"), g.CarsFrac*100, g.Baseline*100)
	}
	for _, s := range q.StageErrors {
		fmt.Printf("  skipped stage %s: %s\n", s.Stage, s.Err)
	}
	fmt.Println()
}

// parseShard parses the -shard "s/S" spec; empty means shard 0 of 1
// (keep everything).
func parseShard(spec string) (shard, shards int, err error) {
	if spec == "" {
		return 0, 1, nil
	}
	if _, err := fmt.Sscanf(spec, "%d/%d", &shard, &shards); err != nil {
		return 0, 0, fmt.Errorf("bad -shard %q (want s/S, e.g. 3/8)", spec)
	}
	if shards < 1 || shard < 0 || shard >= shards {
		return 0, 0, fmt.Errorf("bad -shard %q: shard index outside [0, %d)", spec, shards)
	}
	return shard, shards, nil
}

// runStreaming analyzes a CDR file in one bounded-memory pass through
// the parallel engine — records are sharded by car across opts.Workers
// goroutines, so streaming and batch mode print the same report (the
// busy-cell sections additionally need a load source, which a bare CDR
// file cannot provide).
//
// With cfg.Path set the pass is durable: state is checkpointed every
// cfg.Every records and on SIGTERM/SIGINT, and cfg.Resume restores a
// previous checkpoint and skips past its watermark.
func runStreaming(path string, ctx analysis.Context, opts analysis.RunOptions, ingest cdr.ResilientConfig, cfg analysis.CheckpointConfig) (*analysis.Report, cdr.IngestStats, error) {
	rr, closer, err := openInput(path, ingest)
	if err != nil {
		return nil, cdr.IngestStats{}, err
	}
	defer closer.Close()
	if cfg.Path != "" {
		trig := make(chan struct{})
		sigc := make(chan os.Signal, 1)
		signal.Notify(sigc, syscall.SIGTERM, os.Interrupt)
		defer signal.Stop(sigc)
		go func() {
			<-sigc
			close(trig)
		}()
		cfg.Trigger = trig
	}
	eng := analysis.NewEngine(ctx, analysis.EngineOptions{RunOptions: opts, Workers: opts.Workers})
	rep, err := eng.RunReaderCheckpointed(rr, cfg)
	return rep, rr.Stats(), err
}

// progressCurrent returns the progress position source: the further
// along of the resilient-ingest attempt counter (delivered plus
// quarantined — leads in file modes) and the engine's raw-record
// counter (the only one advancing in generate mode, where no resilient
// reader runs). Quarantined records must count as progress: the ETA
// total is estimated from the input size, which includes the records
// ingest will reject, so a degraded run that excluded bad records
// would otherwise stall short of 100% forever.
func progressCurrent(reg *obs.Registry) func() int64 {
	ingested := reg.Counter("cellcars_ingest_records_total")
	quarantined := make([]*obs.Counter, cdr.NumFailureClasses)
	for c := range quarantined {
		quarantined[c] = reg.Counter("cellcars_ingest_quarantined_total",
			obs.Label{Key: "class", Value: cdr.FailureClass(c).String()})
	}
	accepted := reg.Counter("cellcars_engine_records_total", obs.Label{Key: "outcome", Value: "accepted"})
	ghosts := reg.Counter("cellcars_engine_records_total", obs.Label{Key: "outcome", Value: "ghost"})
	oop := reg.Counter("cellcars_engine_records_total", obs.Label{Key: "outcome", Value: "out_of_period"})
	return func() int64 {
		attempted := ingested.Value()
		for _, q := range quarantined {
			attempted += q.Value()
		}
		if raw := accepted.Value() + ghosts.Value() + oop.Value(); raw > attempted {
			return raw
		}
		return attempted
	}
}

// totalRecordsHint estimates the inputs' record count for progress
// ETA: exact for binary CDR files (fixed-size records), 0 — no ETA —
// when any input is CSV, a generated scene, or unreadable.
func totalRecordsHint(paths []string) int64 {
	if len(paths) == 0 {
		return 0
	}
	var total int64
	for _, path := range paths {
		if strings.HasSuffix(path, ".csv") {
			return 0
		}
		fi, err := os.Stat(path)
		if err != nil {
			return 0
		}
		total += cdr.BinaryRecordCount(fi.Size())
	}
	return total
}

// openInput opens a CDR file with the codec its extension names,
// behind the resilient ingest layer. The closer owns the file.
func openInput(path string, ingest cdr.ResilientConfig) (*cdr.ResilientReader, io.Closer, error) {
	r, closer, err := cdr.OpenFile(path)
	if err != nil {
		return nil, nil, err
	}
	return cdr.NewResilientReader(r, ingest), closer, nil
}

// readFile loads a CDR file through the resilient ingest layer,
// returning the accepted records and the ingest statistics.
func readFile(path string, ingest cdr.ResilientConfig) ([]cdr.Record, cdr.IngestStats, error) {
	rr, closer, err := openInput(path, ingest)
	if err != nil {
		return nil, cdr.IngestStats{}, err
	}
	defer closer.Close()
	records, err := cdr.ReadAll(rr)
	return records, rr.Stats(), err
}

// sampleCars picks n distinct car ids, deterministically (lowest ids
// first so repeated runs print the same panels).
func sampleCars(records []cdr.Record, n int) []cdr.CarID {
	seen := map[cdr.CarID]int{}
	for _, r := range records {
		seen[r.Car]++
	}
	ids := make([]cdr.CarID, 0, len(seen))
	for car := range seen {
		ids = append(ids, car)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	// Prefer cars with substantial history so the matrices show texture.
	var out []cdr.CarID
	for _, car := range ids {
		if seen[car] > 50 && len(out) < n {
			out = append(out, car)
		}
	}
	for _, car := range ids {
		if len(out) >= n {
			break
		}
		if seen[car] <= 50 {
			out = append(out, car)
		}
	}
	return out
}

// allCells returns the distinct cells in the stream, in first-seen
// order.
func allCells(records []cdr.Record) []radio.CellKey {
	seen := map[radio.CellKey]struct{}{}
	var out []radio.CellKey
	for _, r := range records {
		if _, ok := seen[r.Cell]; !ok {
			seen[r.Cell] = struct{}{}
			out = append(out, r.Cell)
		}
	}
	return out
}

func binAxis(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i) / 4 // hours
	}
	return xs
}

func dayAxis(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i)
	}
	return xs
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "caranalyze: "+format+"\n", args...)
	if err := runAtExit(); err != nil {
		// The hook is already cleared, so reporting its failure here
		// cannot recurse; the exit code is 1 either way.
		fmt.Fprintf(os.Stderr, "caranalyze: cleanup: %v\n", err)
	}
	os.Exit(1)
}
