// Command carmerge merges partial analysis snapshots produced by
// `caranalyze -partial` (or checkpoint files) and finalizes the full
// report — the reduce side of a map-reduce run over car-sharded CDR
// shards.
//
// Usage:
//
//	carmerge shard0.snap shard1.snap shard2.snap
//	carmerge -o merged.snap shard*.snap       # write merged partial, no report
//	carmerge -md report.md shard*.snap        # also render Markdown
//
// Every input must carry the same study configuration (period,
// time zone, seed, rare-day thresholds, busy-cell set); carmerge
// refuses to merge partials whose car sets overlap — exact merges
// require car-disjoint shards (shard with cdr.ShardOfCar) — unless
// -allow-overlap accepts the double counting.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"cellcars/internal/analysis"
	"cellcars/internal/obs"
	"cellcars/internal/report"
)

func main() {
	var (
		out          = flag.String("o", "", "write the merged partial snapshot here instead of printing the report")
		force        = flag.Bool("force", false, "overwrite an existing -o snapshot file")
		md           = flag.String("md", "", "also write a Markdown report to this file")
		allowOverlap = flag.Bool("allow-overlap", false, "merge partials whose car sets overlap (double-counts shared cars)")
		quiet        = flag.Bool("q", false, "suppress per-input progress lines")
		debugAddr    = flag.String("debug-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address while merging")
	)
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: carmerge [-o merged.snap] [-md report.md] [-allow-overlap] shard.snap...")
		os.Exit(2)
	}
	if *debugAddr != "" {
		srv, err := obs.Serve(*debugAddr, obs.New())
		if err != nil {
			fatal("debug server: %v", err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "carmerge: debug server on http://%s\n", srv.Addr())
	}
	if *out != "" && !*force {
		if _, err := os.Stat(*out); err == nil {
			fatal("%s exists; use -force to overwrite", *out)
		}
	}

	var merged *analysis.Partial
	for _, path := range flag.Args() {
		p, err := analysis.ReadPartialFile(path)
		if err != nil {
			fatal("read %v", err)
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "carmerge: %s: %d records, watermark study %s+%dd\n",
				path, p.Records(), p.Header.PeriodStart.Format("2006-01-02"), p.Header.PeriodDays)
		}
		if merged == nil {
			merged = p
			continue
		}
		if err := merged.Merge(p, *allowOverlap); err != nil {
			fatal("merge %s: %v", path, err)
		}
	}

	if *out != "" {
		if err := merged.WriteSnapshot(*out); err != nil {
			fatal("write %s: %v", *out, err)
		}
		fmt.Fprintf(os.Stderr, "carmerge: wrote merged partial (%d records, %d inputs) to %s\n",
			merged.Records(), flag.NArg(), *out)
		if *md == "" {
			return
		}
	}

	rep := merged.Finalize()
	ctx := analysis.Context{
		Period:          merged.Header.Period(),
		TZOffsetSeconds: merged.Header.TZOffsetSeconds,
	}
	// Partial state carries no raw records and no load model, so the
	// report is its stage-derived sections; Figures 1, 5, 8 and 10 are
	// left out.
	if err := report.Text(os.Stdout, rep, ctx, report.Options{}); err != nil {
		fatal("print report: %v", err)
	}

	if *md != "" {
		doc := report.Render(rep, ctx, report.Options{
			Title:            "cellcars merged report",
			SceneDescription: fmt.Sprintf("merged from %d partial snapshot(s), %d records", flag.NArg(), merged.Records()),
			Now:              time.Now(),
		})
		if err := os.WriteFile(*md, []byte(doc), 0o644); err != nil {
			fatal("write %s: %v", *md, err)
		}
		fmt.Printf("wrote Markdown report to %s\n", *md)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "carmerge: "+format+"\n", args...)
	os.Exit(1)
}
