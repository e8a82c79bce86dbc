// Command carqueryd is the long-running query service over CDR
// streams: it ingests records continuously into time-bucketed
// accumulators and serves the paper's reports over rolling windows as
// HTTP/JSON — per-cell busy-ness, segment mix, handover rates, fleet
// usage — plus /healthz, /readyz, /stats and the standard obs surface
// (/metrics, /debug/pprof).
//
//	carqueryd -start 2017-01-02 -days 90 -snapshots /var/lib/carqueryd day*.cdr
//	curl localhost:8080/report/handovers?window=24h
//
// Durability: with -snapshots, the daemon writes consistent cuts of
// every live bucket periodically (written behind ingest), at EOF and
// on SIGTERM, and a restart warm starts from the newest valid cut,
// replaying only the post-watermark tail of its inputs. A SIGTERM exit is graceful: in-flight requests
// drain, then a final cut, then exit 0.
//
// Observability: every stdout line is one structured JSON log record
// carrying the component and run_id; request telemetry, freshness SLIs
// and health-rule state are exported on /metrics; failing health rules
// (ingest stalled, error budget, snapshot cuts) degrade /readyz to 503
// with a body naming them. -trace writes a JSONL span trace.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"cellcars/internal/cdr"
	"cellcars/internal/obs"
	"cellcars/internal/query"
	"cellcars/internal/snapshot"
	"cellcars/internal/studyflags"
)

// shutdownGrace bounds how long a SIGTERM waits for in-flight HTTP
// requests before closing their connections.
const shutdownGrace = 5 * time.Second

func main() {
	var (
		listen = flag.String("listen", "127.0.0.1:8080", "HTTP listen address (use :0 for an ephemeral port)")

		bucket  = flag.String("bucket", "1h", "accumulator bucket width (must divide the study period)")
		windows = flag.String("windows", "24h,7d,90d", "comma-separated rolling windows (h/m/s suffixes or Nd days); each must be a multiple of the bucket")

		snapshots = flag.String("snapshots", "", "snapshot directory for durable cuts (empty: no durability)")
		snapEvery = flag.Int64("snapshot-every", 1_000_000, "records between periodic cuts (0: cut only at EOF and on shutdown)")
		keep      = flag.Int("keep", 3, "rotated cuts to retain in -snapshots")

		tracePath  = flag.String("trace", "", "write a JSONL span trace (ingest, cuts, window composes) to this file")
		stallAfter = flag.Duration("stall-after", 30*time.Second, "degrade /readyz when ingest is attached but no record arrived for this long (0 disables)")
		budgetWarn = flag.Float64("budget-degraded", 0.8, "degrade /readyz when this fraction of the ingest error budget is spent (>=1 or <=0 disables)")
	)
	study := studyflags.Register(flag.CommandLine, 90, true)
	flag.Parse()

	runID := obs.NewRunID()
	logger := obs.NewLogger(os.Stdout, "carqueryd", runID)
	// Every exit is an os.Exit, so nothing deferred runs: fatal and
	// shutdown flush the quarantine file themselves, and a lost audit
	// trail fails the exit code.
	closeSink := func() error { return nil }
	exit := func(code int) {
		if err := closeSink(); err != nil {
			logger.Error("close quarantine file failed", "err", err.Error())
			code = 1
		}
		os.Exit(code)
	}
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		exit(1)
	}

	inputs := flag.Args()
	if len(inputs) == 0 {
		fatal("no input files (give CDR files as positional arguments)")
	}

	ctx, err := study.Context()
	if err != nil {
		fatal("bad study flags", "err", err.Error())
	}
	width, err := parseSpan(*bucket)
	if err != nil {
		fatal("bad -bucket", "err", err.Error())
	}
	wins, err := parseWindows(*windows)
	if err != nil {
		fatal("bad -windows", "err", err.Error())
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
	ingest, closeIngest, err := study.Ingest(ctx.Period, reg)
	if err != nil {
		fatal("ingest setup failed", "err", err.Error())
	}
	closeSink = closeIngest

	var dir *snapshot.Dir
	if *snapshots != "" {
		dir = &snapshot.Dir{Path: *snapshots, Keep: *keep}
	}

	store, err := query.New(query.Config{
		Ctx:       ctx,
		Opts:      study.RunOptions(),
		Bucket:    width,
		Windows:   wins,
		Snapshots: dir,
		Obs:       reg,
		Trace:     trace,
	})
	if err != nil {
		fatal("bad store configuration", "err", err.Error())
	}

	// Warm restart: restore the newest valid cut, then replay only the
	// post-watermark tail of the inputs.
	var watermark int64
	if dir != nil {
		wm, ok, err := store.Restore()
		if err != nil {
			fatal("warm restart failed", "snapshots", dir.Path, "err", err.Error())
		}
		for _, skip := range store.SkippedCuts() {
			logger.Warn("skipped snapshot cut", "err", skip.Error())
		}
		if ok {
			watermark = wm
			logger.Info("warm restart", "snapshots", dir.Path, "watermark", wm)
		}
	}

	// Health rules gate /readyz once the daemon is warm. Rules read
	// only atomically-safe surfaces (the store's mutex-guarded
	// freshness SLIs, obs gauge handles), never the ingest reader's
	// un-synchronized Stats.
	var ingesting atomic.Bool
	health := obs.NewHealth(reg)
	if *stallAfter > 0 {
		health.Rule("ingest_stalled", func() (bool, string) {
			age := store.WatermarkAge()
			if ingesting.Load() && age > *stallAfter {
				return false, fmt.Sprintf("no record ingested for %v (threshold %v)", age.Round(time.Millisecond), *stallAfter)
			}
			return true, ""
		})
	}
	if *budgetWarn > 0 && *budgetWarn < 1 && study.Budget > 0 {
		budgetGauge := reg.Gauge("cellcars_ingest_budget_used_ratio")
		health.Rule("ingest_error_budget", func() (bool, string) {
			if used := budgetGauge.Value(); used >= *budgetWarn {
				return false, fmt.Sprintf("%.0f%% of the ingest error budget spent (degraded at %.0f%%)", used*100, *budgetWarn*100)
			}
			return true, ""
		})
	}
	if dir != nil {
		health.Rule("snapshot_cuts", func() (bool, string) {
			if f := store.Freshness(); f.LastCutError != "" {
				return false, "last cut failed: " + f.LastCutError
			}
			return true, ""
		})
	}

	srv := query.NewServerWithOptions(store, reg, query.ServerOptions{
		Logger: logger,
		Health: health,
	})
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal("listen failed", "addr", *listen, "err", err.Error())
	}
	// The test harness and operators read this record for the bound
	// address, so it goes out before ingest starts.
	logger.Info("listening", "addr", ln.Addr().String())
	hsrv := &http.Server{Handler: srv}
	go func() {
		if err := hsrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal("http serve failed", "err", err.Error())
		}
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, os.Interrupt)
	shutdown := func(when string) {
		// Drain in-flight requests first so no response is cut off
		// mid-body, then take the final durable cut.
		sctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		if err := hsrv.Shutdown(sctx); err != nil {
			logger.Warn("http shutdown did not drain", "err", err.Error())
		}
		cancel()
		if dir != nil {
			seq, err := store.Checkpoint()
			if err != nil {
				fatal("final cut failed", "err", err.Error())
			}
			logger.Info("terminated", "when", when, "snapshots", dir.Path,
				"cut_seq", seq, "watermark", store.Watermark())
		} else {
			logger.Info("terminated", "when", when)
		}
		exit(0)
	}

	// The inputs in argument order, one descriptor at a time; the reader
	// closes each file as it drains and every exit is an os.Exit, so the
	// closer has nothing left to do.
	files, _, err := cdr.OpenFiles(inputs...)
	if err != nil {
		fatal("open inputs failed", "err", err.Error())
	}
	rr := cdr.NewResilientReader(files, ingest)
	if watermark > 0 {
		if err := cdr.Skip(rr, watermark); err != nil {
			fatal("tail replay skip failed", "skip", watermark, "err", err.Error())
		}
	}
	srv.SetReady(true)
	ingesting.Store(true)
	ingestSpan := trace.Start("ingest")

	// A batch at a time, each read clipped to end where the next cut is
	// due, so the cuts fall on the same records as a record at a time.
	periodic := dir != nil && *snapEvery > 0
	buf := make([]cdr.Record, 512)
	var sinceCut int64
	for {
		select {
		case <-sigc:
			ingesting.Store(false)
			shutdown("terminated mid-ingest")
		default:
		}
		want := buf
		if periodic {
			want = buf[:min(int64(len(buf)), *snapEvery-sinceCut)]
		}
		n, err := rr.ReadBatch(want)
		for _, rec := range want[:n] {
			store.Add(rec)
		}
		ingestSpan.AddRecords(int64(n))
		sinceCut += int64(n)
		if periodic && sinceCut >= *snapEvery {
			// Ingest waits for the encode only; the file is written
			// behind it, and joined by the next cut, EOF or SIGTERM. A
			// periodic cut failure is survivable — serving continues
			// from memory — so it degrades /readyz (snapshot_cuts rule)
			// as it lands, and is logged here one cut later, instead of
			// killing the daemon.
			if err := store.CheckpointBehind(); err != nil {
				logger.Error("periodic cut failed", "err", err.Error())
			}
			sinceCut = 0
		}
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			fatal("ingest failed", "err", err.Error())
		}
	}
	ingesting.Store(false)
	ingestSpan.End()
	if dir != nil {
		if _, err := store.Checkpoint(); err != nil {
			logger.Error("cut at EOF failed", "err", err.Error())
		}
	}
	istats := rr.Stats()
	logger.Info("drained", "records", store.Watermark(), "quarantined", istats.QuarantinedTotal())

	<-sigc
	shutdown("terminated")
}

// parseSpan parses a duration with the usual h/m/s suffixes plus an
// Nd day form, which time.ParseDuration lacks.
func parseSpan(s string) (time.Duration, error) {
	if n, ok := strings.CutSuffix(s, "d"); ok && !strings.ContainsAny(n, "hms") {
		days, err := time.ParseDuration(n + "h")
		if err != nil {
			return 0, fmt.Errorf("bad span %q", s)
		}
		return days * 24, nil
	}
	return time.ParseDuration(s)
}

func parseWindows(spec string) ([]query.Window, error) {
	var out []query.Window
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		span, err := parseSpan(tok)
		if err != nil {
			return nil, fmt.Errorf("window %q: %v", tok, err)
		}
		out = append(out, query.Window{Name: tok, Span: span})
	}
	if len(out) == 0 {
		return nil, errors.New("no windows")
	}
	return out, nil
}
