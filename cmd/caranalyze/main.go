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
// a snapshot mergeable by carmerge; it reads every listed input and
// parses, checks and keeps the rows shard s of -shard s/S owns (all of
// them by default), so -strict and -budget judge those rows only, and
// it exits 4 when they refuse the input. cardrive drives fleets of such
// workers with retries, speculation and quarantine. -checkpoint makes a
// streaming run durable: state is saved every -checkpoint-every records
// and on SIGTERM/SIGINT, and -resume picks up from the saved watermark.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"cellcars/internal/analysis"
	"cellcars/internal/cdr"
	"cellcars/internal/drive"
	"cellcars/internal/load"
	"cellcars/internal/obs"
	"cellcars/internal/query"
	"cellcars/internal/report"
	"cellcars/internal/studyflags"
	"cellcars/internal/synth"
)

func main() {
	var (
		in      = flag.String("in", "", "CDR file to analyze (empty: generate a scene)")
		cars    = flag.Int("cars", 2000, "fleet size (generate mode)")
		world   = flag.Float64("world", 60, "world side length in km (generate mode)")
		md      = flag.String("md", "", "also write a Markdown report to this file")
		asJSON  = flag.Bool("json", false, "with -in: print the full report as JSON (the exact bytes carqueryd's /report/full serves) instead of tables")
		stream  = flag.Bool("stream", false, "with -in: single-pass bounded-memory analysis")
		workers = flag.Int("workers", 0, "parallel analysis workers, records sharded by car (0: one per CPU, at most 8; with -resume, the checkpoint's)")

		failStage = flag.String("failstage", "", "chaos hook: artificially fail the named analysis stage")

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
	study := studyflags.Register(flag.CommandLine, 28, true)
	flag.Parse()
	// Input files may also be given positionally. -partial mode
	// accepts many (a worker reads all of them, keeping its car-hash
	// shard's rows); every other mode takes exactly one.
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

	// Flag combinations and values that would otherwise be silently
	// ignored, refused before anything is opened or read. -workers is refused under
	// -partial when it was given, whatever its value: its default is the
	// machine's, and every cardrive worker is a -partial run.
	workersGiven, everyGiven := false, false
	flag.Visit(func(f *flag.Flag) {
		workersGiven = workersGiven || f.Name == "workers"
		everyGiven = everyGiven || f.Name == "checkpoint-every"
	})
	switch {
	case *workers < 0:
		fatal("-workers %d: want a positive count, or 0 for one per CPU", *workers)
	case *ckptEvery < 0:
		fatal("-checkpoint-every %d: want a positive record count, or 0 for checkpoints on a signal only", *ckptEvery)
	case everyGiven && *checkpoint == "":
		fatal("-checkpoint-every needs -checkpoint (the file to write)")
	case *partial != "" && (*md != "" || *asJSON || *stream || *checkpoint != "" || *resume || workersGiven):
		fatal("-partial only writes a partial snapshot; -md, -json, -stream, -checkpoint, -resume and -workers do not apply")
	case *partial != "" && len(inputs) == 0:
		fatal("-partial needs input files (-in or positional arguments)")
	case *asJSON && (*md != "" || *checkpoint != "" || *resume):
		fatal("-json prints only the JSON report; -md, -checkpoint and -resume do not apply")
	case *asJSON && *in == "":
		fatal("-json needs -in (file mode)")
	case (*checkpoint != "" || *resume) && !(*stream && *in != ""):
		fatal("-checkpoint and -resume need -stream mode")
	case *resume && *checkpoint == "":
		fatal("-resume needs -checkpoint (the file to resume from)")
	case *cars <= 0:
		fatal("-cars must be positive, got %d", *cars)
	}
	if err := synth.CheckWorldSize(*world); err != nil {
		fatal("-world %v: %v", *world, err)
	}

	ctx, err := study.Context()
	if err != nil {
		fatal("%v", err)
	}
	// The observability layer is always on for the CLI: a registry
	// costs nothing to keep and lets -debug-addr expose a live run.
	reg := obs.New()
	// The quarantine file is flushed even on fatal exits (atExit): the
	// audit trail matters most when the run aborts.
	ingest, closeSink, err := study.Ingest(ctx.Period, reg)
	if err != nil {
		fatal("%v", err)
	}
	atExit = closeSink
	// A lost audit trail is a failed run: propagate a close failure to
	// the exit code instead of pretending the file is whole. runAtExit
	// clears the hook first, so this fatal cannot re-enter the cleanup.
	defer func() {
		if err := runAtExit(); err != nil {
			fatal("close quarantine file: %v", err)
		}
	}()

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

	opts := study.RunOptions()
	opts.FailStage = *failStage

	if *partial != "" {
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
		opts.Obs = reg
		st, err := drive.RunWorker(drive.WorkerConfig{
			Inputs:  inputs,
			Shard:   shard,
			Shards:  shards,
			Attempt: attempt,
			Out:     *partial,
			Ctx:     ctx,
			Opts:    opts,
			Ingest:  ingest,
			Chaos:   chaos,
		})
		if errors.Is(err, cdr.ErrRefused) {
			// Not a crash: a coordinator must not run the attempt again.
			exit(drive.ExitInputRefused, "partial: %v", err)
		}
		if err != nil {
			fatal("partial: %v", err)
		}
		// The machine-readable line a cardrive coordinator parses.
		drive.PrintStats(os.Stdout, st)
		fmt.Printf("wrote partial state of %d records (%d quarantined; %d of %d rows skipped as other shards') to %s; merge with carmerge or run under cardrive\n",
			st.Records, st.Quarantined, st.Skipped, st.Rows, *partial)
		return
	}

	// One source: a generated scene, or the input file — bare for
	// -stream (bounded memory) and -json, behind an exhibit picker in
	// generate and the default file mode, which read their input again
	// after the run to draw the record-level figures.
	var (
		src       cdr.Reader
		rr        *cdr.ResilientReader // file modes
		picked    *picking             // src, when readAgain is set
		readAgain func() (cdr.Reader, error)
		exhibits  *analysis.Exhibits
		model     *load.Model // generate mode
		istats    cdr.IngestStats
		source    = *in
	)
	opts.Workers = *workers
	if !*asJSON {
		// -json renders carqueryd's bytes, which carry no Profile timings.
		opts.Obs = reg
	}
	if *in == "" {
		source = "generated scene"
		cfg := synth.DefaultConfig(*cars)
		cfg.Seed = study.Seed
		cfg.WorldSizeKm = *world
		cfg.Period = ctx.Period
		w := synth.NewWorld(cfg)
		records, stats := w.GenerateAll()
		model = w.Load
		ctx.Load = model
		opts.BusyCells = model.VeryBusyCells()
		istats.Read = int64(stats.Records)
		src = cdr.NewSliceReader(records)
		readAgain = func() (cdr.Reader, error) { return cdr.NewSliceReader(records), nil }
		fmt.Printf("generated %d records (%d cars, %d stations, %d cells)\n\n",
			stats.Records, *cars, w.Net.NumStations(), w.Net.NumCells())
	} else {
		file, closer, err := cdr.OpenFiles(*in)
		if err != nil {
			fatal("open %s: %v", *in, err)
		}
		defer closer.Close()
		rr = cdr.NewResilientReader(file, ingest)
		src = rr
		if !*stream && !*asJSON {
			if fi, err := os.Stat(*in); err == nil && fi.Mode().IsRegular() {
				readAgain = func() (cdr.Reader, error) {
					return rereadInput(*in, ingest, firstRead{stats: rr.Stats(), sum: picked.sum})
				}
			} else {
				exhibits = &analysis.Exhibits{Missing: fmt.Sprintf("needs a regular input file: %s is not one, and is read once", *in)}
			}
		}
	}
	if readAgain != nil {
		picked = &picking{r: src, pick: analysis.NewExhibitPicker(ctx.Period)}
		src = picked
	}

	// One engine call. With -checkpoint the pass is durable: state is
	// saved every -checkpoint-every records and on SIGTERM/SIGINT, and
	// -resume restores it and skips past its watermark.
	cfg := analysis.CheckpointConfig{Path: *checkpoint, Every: *ckptEvery, Resume: *resume}
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
	runStart := time.Now()
	rep, err := analysis.NewEngine(ctx, analysis.EngineOptions{RunOptions: opts, Workers: opts.Workers}).
		RunReaderCheckpointed(src, cfg)
	switch {
	case errors.Is(err, analysis.ErrCheckpointStop):
		fmt.Fprintf(os.Stderr, "caranalyze: interrupted; state saved to %s (re-run with -resume to continue)\n", *checkpoint)
		return
	case err != nil:
		fatal("analyze %s: %v", source, err)
	}
	if *asJSON {
		// The byte-comparable batch twin of carqueryd: the report's
		// streaming-covered subset through the query.MarshalReport the
		// daemon's /report/full uses.
		srep := analysis.StreamReportOf(rep, ctx.Period)
		body, err := query.MarshalReport(&srep)
		if err != nil {
			fatal("marshal report: %v", err)
		}
		os.Stdout.Write(body)
		return
	}
	emitRunTrace(trace, rep, time.Since(runStart))
	if picked != nil {
		// Figure 10's two radios, when the clusters stage ran.
		cells := rep.Clusters.Cells[:min(2, len(rep.Clusters.Cells))]
		if exhibits, err = picked.pick.Exhibits(readAgain, cells); err != nil {
			fatal("draw the record-level figures from %s: %v", source, err)
		}
	}
	if rr != nil {
		istats = rr.Stats()
		if *stream {
			fmt.Printf("streamed %d records from %s (%d quarantined, %d workers)\n\n",
				rep.RawRecords, *in, istats.QuarantinedTotal(), rep.ProfileWorkers)
		} else {
			fmt.Printf("loaded %d records from %s (%d quarantined)\n\n",
				rep.RawRecords, *in, istats.QuarantinedTotal())
		}
	}

	quality := analysis.NewDataQuality(istats, int64(rep.RawRecords-rep.CleanRecords), rep.Presence, ctx.Period)
	quality.StageErrors = rep.StageErrors
	ropts := report.Options{Quality: quality, Exhibits: exhibits, Model: model}
	if err := report.Text(os.Stdout, rep, ctx, ropts); err != nil {
		fatal("print report: %v", err)
	}

	if *md != "" {
		t0 := time.Now()
		ropts.Title = "cellcars reproduction report"
		ropts.SceneDescription = fmt.Sprintf("%d records over %d days (seed %d)", rep.RawRecords, study.Days, study.Seed)
		ropts.Now = time.Now()
		if err := os.WriteFile(*md, []byte(report.Render(rep, ctx, ropts)), 0o644); err != nil {
			fatal("write %s: %v", *md, err)
		}
		trace.Emit("report", time.Since(t0), 0)
		fmt.Printf("wrote Markdown report to %s\n", *md)
	}
}

// picking is a cdr.Reader that shows an exhibit picker every record it
// hands on, so the engine's read is also the pick's, and sums the
// records for a second read to compare with.
type picking struct {
	r    cdr.Reader
	pick *analysis.ExhibitPicker
	sum  digest
	one  [1]cdr.Record // Read's batch
}

func (p *picking) Read() (cdr.Record, error) { return cdr.ReadOne(p, &p.one) }

// ReadBatch hands on a batch of the source's, picked from.
func (p *picking) ReadBatch(dst []cdr.Record) (int, error) {
	n, err := cdr.ReadBatch(p.r, dst)
	p.pick.Add(dst[:n])
	p.sum.add(dst[:n])
	return n, err
}

// digest folds records, in order, into 64 bits (FNV-1a over the
// fields' words).
type digest uint64

func (d *digest) add(recs []cdr.Record) {
	h := uint64(*d)
	for i := range recs {
		r := &recs[i]
		for _, w := range [4]uint64{uint64(r.Car), uint64(r.Cell), uint64(r.Start.UnixNano()), uint64(r.Duration)} {
			h = (h ^ w) * 1099511628211
		}
	}
	*d = digest(h)
}

// firstRead is what a second read of the input must find again: the
// first read's ingest counts and the sum of the records it delivered.
type firstRead struct {
	stats cdr.IngestStats
	sum   digest
}

// rereadInput opens the input for a second read that must see what the
// engine read: the first read's checks, with no quarantine sink and no
// metrics, so the audit trail and the counters keep the first read's
// account alone.
func rereadInput(path string, cfg cdr.ResilientConfig, first firstRead) (cdr.Reader, error) {
	file, closer, err := cdr.OpenFiles(path)
	if err != nil {
		return nil, err
	}
	cfg.Sink, cfg.Obs = nil, nil
	return &reread{rr: cdr.NewResilientReader(file, cfg), closer: closer, path: path, first: first}, nil
}

// reread is a second read of the input. It closes the file where the
// read ends, and at the end of the input it fails instead when its
// ingest counts or its records are not the first read's: a figure is
// never drawn from a file that changed under the run.
type reread struct {
	rr     *cdr.ResilientReader
	closer io.Closer
	path   string
	first  firstRead
	sum    digest
	one    [1]cdr.Record // Read's batch
}

func (r *reread) Read() (cdr.Record, error) { return cdr.ReadOne(r, &r.one) }

func (r *reread) ReadBatch(dst []cdr.Record) (int, error) {
	n, err := r.rr.ReadBatch(dst)
	r.sum.add(dst[:n])
	if err == nil {
		return n, nil
	}
	r.closer.Close()
	if errors.Is(err, io.EOF) {
		again := r.rr.Stats()
		if again.Read != r.first.stats.Read || again.Quarantined != r.first.stats.Quarantined {
			return n, fmt.Errorf("%s changed after the engine read it: the engine read %s, the second read %s",
				r.path, ingestCounts(&r.first.stats), ingestCounts(&again))
		}
		if r.sum != r.first.sum {
			return n, fmt.Errorf("%s changed after the engine read it: both reads counted %s, but not the same records",
				r.path, ingestCounts(&again))
		}
	}
	return n, err
}

// ingestCounts says what an ingest counted: rows, records delivered and
// rows quarantined by class.
func ingestCounts(s *cdr.IngestStats) string {
	out := fmt.Sprintf("%d rows (%d delivered", s.Attempted(), s.Read)
	for c, n := range s.Quarantined {
		if n > 0 {
			out += fmt.Sprintf(", %d %s", n, cdr.FailureClass(c))
		}
	}
	return out + ")"
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
// stage, converting the report's cost table into the JSONL trace. A
// stage span is the stage's share of the elapsed time — Add's
// worker-seconds counted once per worker — so the stage spans fit
// inside the analyze span whatever the worker count; so does the
// checkpoint span of a run that cut, the time its cuts (the count) kept
// ingest waiting.
func emitRunTrace(t *obs.Trace, rep *analysis.Report, elapsed time.Duration) {
	t.Emit("analyze", elapsed, int64(rep.RawRecords))
	if ck := rep.ProfileCheckpoints; ck.Cuts > 0 {
		t.Emit("checkpoint", time.Duration(ck.StallSeconds*float64(time.Second)), ck.Cuts)
	}
	for _, p := range rep.Profile {
		t.Emit("stage:"+p.Stage, time.Duration(p.WallSeconds(rep.ProfileWorkers)*float64(time.Second)), p.Records)
	}
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

// progressCurrent returns the progress position source: the further
// along of the resilient-ingest attempt counter (delivered plus
// quarantined plus, under -shard, skipped as another shard's — leads in
// file modes) and the engine's raw-record counter (the only one
// advancing in generate mode, where no resilient reader runs). Quarantined and skipped rows must count as progress: the
// ETA total is estimated from the input size, which includes the rows
// ingest will reject or leave to other shards, so a degraded or sharded
// run would otherwise stall short of 100% forever.
func progressCurrent(reg *obs.Registry) func() int64 {
	ingested := reg.Counter("cellcars_ingest_records_total")
	skipped := reg.Counter("cellcars_ingest_rows_skipped_total")
	quarantined := make([]*obs.Counter, cdr.NumFailureClasses)
	for c := range quarantined {
		quarantined[c] = reg.Counter("cellcars_ingest_quarantined_total",
			obs.Label{Key: "class", Value: cdr.FailureClass(c).String()})
	}
	accepted := reg.Counter("cellcars_engine_records_total", obs.Label{Key: "outcome", Value: "accepted"})
	ghosts := reg.Counter("cellcars_engine_records_total", obs.Label{Key: "outcome", Value: "ghost"})
	oop := reg.Counter("cellcars_engine_records_total", obs.Label{Key: "outcome", Value: "out_of_period"})
	return func() int64 {
		attempted := ingested.Value() + skipped.Value()
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

func fatal(format string, args ...any) { exit(1, format, args...) }

// exit prints the message, runs the cleanup hook and ends the process
// with the given non-zero code.
func exit(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "caranalyze: "+format+"\n", args...)
	if err := runAtExit(); err != nil {
		// The hook is already cleared, so reporting its failure here
		// cannot recurse; the exit code says failure either way.
		fmt.Fprintf(os.Stderr, "caranalyze: cleanup: %v\n", err)
	}
	os.Exit(code)
}
