package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"cellcars/bench/span"
)

// tracer is the traced run's span recorder, threaded through ops so
// that every child process a workload starts becomes a span beneath
// that workload's. It is nil in an end-to-end run, which records
// nothing.
type tracer struct {
	rec    *span.Recorder
	parent int
}

// childSpan is one line of a binary's own -trace file. The binaries
// stamp a finished span with the time it ended, not the time it began.
type childSpan struct {
	Span    string  `json:"span"`
	EndMS   float64 `json:"start_ms"`
	DurMS   float64 `json:"dur_ms"`
	Records int64   `json:"records"`
}

func readChildSpans(path string) ([]childSpan, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []childSpan
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var cs childSpan
		if err := json.Unmarshal(sc.Bytes(), &cs); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, cs)
	}
	return out, sc.Err()
}

// driveTrace turns one cardrive run's own span file into the drive
// layer's metrics and hangs its spans beneath the run's span. rows is
// the number of CSV rows every attempt decoded.
func driveTrace(path string, run childRun, tr *tracer, rows int64, s samples) error {
	spans, err := readChildSpans(path)
	if err != nil {
		return err
	}
	var attempts []float64
	var kept int64
	var retries float64
	var planMS, mergeMS float64
	first, last := 0.0, 0.0
	var graft []span.Span
	for i, cs := range spans {
		graft = append(graft, span.Span{ID: i + 1, Name: "drive." + cs.Span, Records: cs.Records,
			StartUS: int64((cs.EndMS - cs.DurMS) * 1e3), EndUS: int64(cs.EndMS * 1e3)})
		switch {
		case cs.Span == "plan":
			planMS = cs.DurMS
		case cs.Span == "merge":
			mergeMS = cs.DurMS
		case strings.HasPrefix(cs.Span, "attempt:"):
			attempts = append(attempts, cs.DurMS)
			kept += cs.Records
			if _, n, ok := strings.Cut(cs.Span, "."); ok && n != "0" {
				retries++
			}
			if begin := cs.EndMS - cs.DurMS; len(attempts) == 1 || begin < first {
				first = begin
			}
			last = max(last, cs.EndMS)
		}
	}
	if len(attempts) == 0 || kept == 0 {
		return fmt.Errorf("%s: no attempt spans", path)
	}
	tr.rec.Graft(run.Span, tr.rec.SinceOriginUS(run.Start), graft)
	s.add("drive.plan_ms", planMS)
	s.add("drive.attempt_ms.p50", median(attempts))
	s.add("drive.attempt_ms.max", percentile(attempts, 100))
	s.add("drive.merge_ms", mergeMS)
	// What the coordinator adds around the work: the run's wall minus
	// the stretch during which attempts were running and the merge.
	s.add("drive.coord_overhead_ms", run.Wall.Seconds()*1e3-(last-first)-mergeMS)
	s.add("drive.retries", retries)
	s.add("drive.decode_amplification", float64(len(attempts))*float64(rows)/float64(kept))
	return nil
}

// layerTrace builds and runs the layertrace program over the run's
// inputs and folds its samples and spans into the traced run.
func layerTrace(e *env, in *inputs, partials string, tr *tracer, s samples, skipped map[string]string) error {
	bin := e.bin("layertrace")
	if _, err := run(filepath.Join(e.root, "bench"), "go", "build", "-o", bin, "./layertrace"); err != nil {
		return fmt.Errorf("build layertrace: %w", err)
	}
	sp := tr.rec.Start("layertrace", tr.parent)
	res, err := run(e.work, bin, "-main", e.in("main.cdr"), "-csv", e.in("faulty.csv"), "-serve", e.in("serve.cdr"),
		"-partials", partials, "-seed", strconv.FormatUint(e.seed, 10), "-every", checkpointEvery(in.Main.Records), "-work", e.work)
	sp.End(in.Main.Records)
	if err != nil {
		return err
	}
	var out struct {
		Samples map[string][]float64 `json:"samples"`
		Skipped map[string]string    `json:"skipped"`
		Spans   []span.Span          `json:"spans"`
	}
	if err := json.Unmarshal(res.Stdout, &out); err != nil {
		return fmt.Errorf("layertrace output: %w", err)
	}
	for name, xs := range out.Samples {
		s[name] = xs
	}
	for name, why := range out.Skipped {
		skipped[name] = why
	}
	tr.rec.Graft(sp.ID(), tr.rec.SinceOriginUS(res.Start), out.Spans)
	return nil
}
