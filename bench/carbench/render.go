package main

import (
	"fmt"
	"io"
)

// renderMarkdown prints a result as the tables bench/README.md embeds,
// so the document is generated from the data and cannot drift from it.
func renderMarkdown(w io.Writer, sp *spec, r *Result) {
	kind, listed := "end to end, tracing off", sp.EndToEnd
	if r.Traced {
		kind, listed = "traced, per layer", sp.PerLayer
	}
	fmt.Fprintf(w, "Commit `%s`, seed %d, size `%s`, %s; at least %d timed repetitions after one discarded warm-up.\n",
		r.Commit, r.Seed, r.Size, kind, r.MinReps)
	fmt.Fprintf(w, "Cohort: %s, %d CPUs, GOMAXPROCS %d, %s, %s.\n\n",
		r.Cohort.CPUModel, r.Cohort.NumCPU, r.Cohort.GOMAXPROCS, r.Cohort.GoVersion, r.Cohort.OSArch)
	fmt.Fprintln(w, "| input | records | bytes | sha256 |")
	fmt.Fprintln(w, "|---|---:|---:|---|")
	for _, in := range r.Inputs {
		fmt.Fprintf(w, "| `%s` | %d | %d | `%.12s…` |\n", in.Name, in.Records, in.Bytes, in.SHA256)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| workload | metric | median | unit | q1 | q3 | n | tail | ops failed/attempted |")
	fmt.Fprintln(w, "|---|---|---:|---|---:|---:|---:|---|---:|")
	for _, wr := range r.Workloads {
		for _, sm := range listed {
			m, ok := wr.Metrics[sm.Name]
			if !ok {
				if why, skipped := wr.Skipped[sm.Name]; skipped {
					fmt.Fprintf(w, "| %s | `%s` | skipped: %s | | | | | | |\n", wr.Name, sm.Name, why)
				}
				continue
			}
			tail := ""
			if m.Tail != nil {
				tail = fmt.Sprintf("p%g %.4g", m.Tail.Percentile, m.Tail.Value)
			}
			fmt.Fprintf(w, "| %s | `%s` | %.4g | %s | %.4g | %.4g | %d | %s | %d/%d |\n",
				wr.Name, sm.Name, m.Value, m.Unit, m.Q1, m.Q3, m.N, tail, wr.Failed, wr.Attempted)
		}
	}
}
