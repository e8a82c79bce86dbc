// Command cardrive is the fault-tolerant coordinator for distributed
// analysis runs: it plans car-disjoint shards over the input CDR
// files, fans them out to caranalyze -partial worker subprocesses, and
// survives worker crashes, stragglers and poisoned shards — failed
// shards are retried with exponential backoff, hung attempts are
// killed by per-attempt timeouts, stragglers get speculative duplicate
// attempts, and a shard that keeps failing is quarantined after its
// attempt budget so the run still produces a report that names the
// excluded shards in its Data Quality section.
//
// Usage:
//
//	cardrive -shards 8 day1.cdr day2.cdr
//	cardrive -shards 8 -md report.md -workdir run1 day*.cdr
//	cardrive -resume -workdir run1 day*.cdr       # after a crash/^C
//	cardrive -chaos kill=0.2,hang=0.1,seed=7 day*.cdr
//
// The work directory holds the shard snapshots and the journal; a
// journal from an earlier run is refused unless -resume re-plans only
// its incomplete shards.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"cellcars/internal/analysis"
	"cellcars/internal/drive"
	"cellcars/internal/obs"
	"cellcars/internal/report"
	"cellcars/internal/studyflags"
)

func main() {
	var (
		shards      = flag.Int("shards", 0, "car-hash shard count (0: 2x GOMAXPROCS)")
		parallel    = flag.Int("parallel", 0, "concurrent worker processes (0: GOMAXPROCS)")
		maxAttempts = flag.Int("max-attempts", 3, "per-shard attempt budget before quarantine")
		timeout     = flag.Duration("attempt-timeout", 0, "kill attempts running longer than this (0: no deadline)")
		backoff     = flag.Duration("backoff", 250*time.Millisecond, "base retry backoff (doubles per failure, +/-50% jitter)")
		maxBackoff  = flag.Duration("max-backoff", 30*time.Second, "retry backoff cap")
		speculate   = flag.Float64("speculate", 1.5, "duplicate a shard's attempt once it exceeds this multiple of the p95 completed-attempt duration (0: off)")
		specMin     = flag.Int("speculate-min", 3, "completed attempts required before speculation starts")
		workdir     = flag.String("workdir", "cardrive.work", "directory for shard snapshots and the journal")
		resume      = flag.Bool("resume", false, "resume from the journal in -workdir, re-planning only incomplete shards")
		keep        = flag.Bool("keep-partials", false, "keep per-shard snapshots in -workdir after the merge")
		chaosSpec   = flag.String("chaos", "", "inject worker faults, e.g. kill=0.2,hang=0.1,flip=0.1,seed=7,poison=3 (testing)")
		workerBin   = flag.String("worker", "", "caranalyze binary to run as workers (default: next to cardrive, then $PATH)")
		md          = flag.String("md", "", "also write a Markdown report to this file")
		quiet       = flag.Bool("q", false, "suppress coordinator progress records")
		debugAddr   = flag.String("debug-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address while running")
		statusAddr  = flag.String("status-addr", "", "serve the live /status shard state machine (plus /metrics and pprof) on this address while running")
		tracePath   = flag.String("trace", "", "write a JSONL span trace (plan, attempts, merge) to this file")
	)
	// The study flags are forwarded to the workers, which do the
	// reading; the coordinator itself only needs the period.
	study := studyflags.Register(flag.CommandLine, 28, false)
	flag.Parse()

	// Everything the coordinator says goes to stderr as structured
	// JSON under one run id; stdout stays the human-readable report.
	// -q silences progress records but not errors or server banners.
	runID := obs.NewRunID()
	logger := obs.NewLogger(os.Stderr, "cardrive", runID)
	progress := logger
	if *quiet {
		progress = obs.NopLogger()
	}
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}

	// drive.New reads a value out of range as "use the default"; only
	// the zeros documented in the usage keep a meaning here.
	for _, f := range []struct {
		name    string
		refused bool
		want    string
	}{
		{"shards", *shards < 0, "a positive count, or 0 for 2x GOMAXPROCS"},
		{"parallel", *parallel < 0, "a positive count, or 0 for GOMAXPROCS"},
		{"max-attempts", *maxAttempts < 1, "at least 1"},
		{"speculate-min", *specMin < 1, "at least 1"},
		{"backoff", *backoff <= 0, "a positive duration"},
		{"max-backoff", *maxBackoff <= 0, "a positive duration"},
		{"attempt-timeout", *timeout < 0, "a positive duration, or 0 for no deadline"},
		{"speculate", !(*speculate >= 0), "a positive multiple, or 0 for off"},
	} {
		if f.refused {
			fatal("bad -"+f.name, "value", flag.Lookup(f.name).Value.String(), "want", f.want)
		}
	}

	inputs := flag.Args()
	if len(inputs) == 0 {
		fmt.Fprintln(os.Stderr, "usage: cardrive [flags] input.cdr...")
		os.Exit(2)
	}
	actx, err := study.Context()
	if err != nil {
		fatal("bad study flags", "err", err.Error())
	}

	worker, err := findWorker(*workerBin)
	if err != nil {
		fatal("no worker binary", "err", err.Error())
	}

	var chaos *drive.Chaos
	if *chaosSpec != "" {
		chaos, err = drive.ParseChaos(*chaosSpec)
		if err != nil {
			fatal("bad -chaos spec", "err", err.Error())
		}
	}

	var trace *obs.Trace
	if *tracePath != "" {
		tf, err := os.Create(*tracePath)
		if err != nil {
			fatal("open -trace file", "err", err.Error())
		}
		defer tf.Close()
		trace = obs.NewTrace(tf)
	}

	reg := obs.New()
	if *debugAddr != "" {
		srv, err := obs.Serve(*debugAddr, reg)
		if err != nil {
			fatal("debug server failed", "err", err.Error())
		}
		defer srv.Close()
		logger.Info("debug server listening", "addr", srv.Addr())
	}

	cfg := drive.Config{
		Inputs:            inputs,
		Shards:            *shards,
		Parallel:          *parallel,
		MaxAttempts:       *maxAttempts,
		AttemptTimeout:    *timeout,
		RetryBackoff:      *backoff,
		MaxBackoff:        *maxBackoff,
		SpeculativeFactor: *speculate,
		SpeculativeMin:    *specMin,
		WorkDir:           *workdir,
		Resume:            *resume,
		KeepPartials:      *keep,
		Chaos:             chaos,
		Obs:               reg,
		Logger:            progress,
		Trace:             trace,
		Tag:               fmt.Sprintf("start=%s days=%d seed=%d tz=%d", study.Start, study.Days, study.Seed, study.TZ),
		Command: func(spec drive.WorkerSpec) *exec.Cmd {
			args := []string{
				"-partial", spec.Out,
				"-shard", fmt.Sprintf("%d/%d", spec.Shard, spec.Shards),
				"-force", // orphaned attempt files from a crashed run must not block retries
			}
			args = append(args, study.WorkerArgs()...)
			args = append(args, spec.Inputs...)
			return exec.Command(worker, args...)
		},
	}

	coord, err := drive.New(cfg)
	if err != nil {
		fatal("coordinator setup failed", "err", err.Error())
	}

	// -status-addr serves the live shard state machine alongside the
	// metrics registry: /status is the per-shard attempt timeline,
	// everything else falls through to the usual debug surface.
	if *statusAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/status", drive.StatusHandler(coord))
		mux.Handle("/", obs.Handler(reg))
		srv, err := obs.ServeHandler(*statusAddr, mux)
		if err != nil {
			fatal("status server failed", "err", err.Error())
		}
		defer srv.Close()
		logger.Info("status server listening", "addr", srv.Addr())
	}

	// ^C / SIGTERM cancels the run cleanly: inflight workers are
	// killed, the journal stays consistent, and -resume picks up the
	// incomplete shards.
	ctx, cancel := context.WithCancel(context.Background())
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, os.Interrupt)
	go func() {
		<-sigc
		cancel()
	}()
	defer signal.Stop(sigc)

	res, err := coord.Run(ctx)
	if errors.Is(err, context.Canceled) {
		logger.Error("interrupted; journal saved, re-run with -resume to continue", "workdir", *workdir)
		os.Exit(1)
	}
	if err != nil {
		fatal("run failed", "err", err.Error())
	}

	fmt.Printf("cardrive: %d shards: %d done, %d quarantined | %d attempts (%d retries, %d speculative, %d spec wins) | %.1fs\n\n",
		res.Done+res.Quarantined, res.Done, res.Quarantined,
		res.Attempts, res.Retries, res.SpeculativeLaunches, res.SpeculativeWins,
		res.Elapsed.Seconds())

	rep := res.Report
	quality := &analysis.DataQuality{
		RecordsRead:      res.Records,
		GhostsDropped:    int64(rep.RawRecords - rep.CleanRecords),
		QuarantinedTotal: res.IngestQuarantined,
		Quarantined:      res.IngestByClass,
		StageErrors:      rep.StageErrors,
		ExcludedShards:   res.Excluded,
	}
	if len(rep.Presence.CarsFrac) > 0 {
		quality.Gaps = analysis.DetectCoverageGaps(rep.Presence, actx.Period, 0)
	}
	// Merged partial state carries no raw records and no load model:
	// the report is its stage-derived sections, as carmerge prints it.
	ropts := report.Options{Quality: quality}
	if err := report.Text(os.Stdout, rep, actx, ropts); err != nil {
		fatal("print report failed", "err", err.Error())
	}

	if *md != "" {
		ropts.Title = "cellcars distributed report"
		ropts.SceneDescription = fmt.Sprintf("distributed run over %d input file(s), %d shards (%d quarantined), %d records",
			len(inputs), res.Done+res.Quarantined, res.Quarantined, res.Records)
		ropts.Now = time.Now()
		if err := os.WriteFile(*md, []byte(report.Render(rep, actx, ropts)), 0o644); err != nil {
			fatal("write markdown report failed", "path", *md, "err", err.Error())
		}
		fmt.Printf("wrote Markdown report to %s\n", *md)
	}
	if res.Quarantined > 0 {
		// A degraded run completes, but its exit code says so.
		os.Exit(3)
	}
}

// findWorker locates the caranalyze binary: explicit flag, next to the
// cardrive executable, then $PATH.
func findWorker(explicit string) (string, error) {
	if explicit != "" {
		return explicit, nil
	}
	if self, err := os.Executable(); err == nil {
		cand := filepath.Join(filepath.Dir(self), "caranalyze")
		if fi, err := os.Stat(cand); err == nil && !fi.IsDir() {
			return cand, nil
		}
	}
	if path, err := exec.LookPath("caranalyze"); err == nil {
		return path, nil
	}
	return "", errors.New("cardrive: caranalyze binary not found (build it, or pass -worker)")
}
