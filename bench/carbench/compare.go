package main

import (
	"errors"
	"fmt"
	"io"
	"reflect"
)

// sameCohort refuses to set two results side by side unless they come
// from one cohort and one set of inputs: a delta across hardware,
// toolchains, seeds or sizes says nothing about the code.
func sameCohort(a, b *Result) error {
	switch {
	case a.Cohort != b.Cohort:
		return fmt.Errorf("mixed cohorts: %+v vs %+v", a.Cohort, b.Cohort)
	case a.Seed != b.Seed || a.Size != b.Size:
		return fmt.Errorf("different inputs: seed %d size %s vs seed %d size %s", a.Seed, a.Size, b.Seed, b.Size)
	case a.Traced != b.Traced || a.Seconds != b.Seconds:
		return fmt.Errorf("different runs: traced=%v seconds=%v vs traced=%v seconds=%v", a.Traced, a.Seconds, b.Traced, b.Seconds)
	case !reflect.DeepEqual(a.Inputs, b.Inputs):
		return errors.New("input record counts or SHA-256 digests differ")
	}
	return nil
}

// minSpreadN is the fewest samples whose quartiles say anything: with
// fewer (setup_s rests on three set-ups) the quartiles are the extremes
// and a metric is judged on its medians alone, as the driver judges
// setup_s.
const minSpreadN = 5

// verdict holds one end-to-end metric's change against its bound.
// worse is the share by which b is worse than a, in the metric's own
// direction (negative: better).
func verdict(m specMetric, a, b Measure) (worse float64, word string) {
	worse = (b.Value - a.Value) / a.Value
	clearlyBetter := b.Q3 < a.Q1
	if m.Better == "higher" {
		worse = -worse
		clearlyBetter = b.Q1 > a.Q3
	}
	switch {
	case min(a.N, b.N) >= minSpreadN && max(a.Spread(), b.Spread()) > m.Bound && !clearlyBetter:
		// The runs disagree with themselves by more than the bound, so
		// they cannot show the metric held it.
		return worse, "unresolved"
	case worse > m.Bound:
		return worse, "REGRESSION"
	case worse < -m.Bound:
		return worse, "better"
	}
	return worse, "ok"
}

// runCompare prints each metric of b against a. End-to-end metrics are
// judged against their bounds, and any regression or unresolved metric
// makes the comparison fail; per-layer metrics have no bounds and are
// listed with their deltas only.
func runCompare(w io.Writer, sp *spec, aPath, bPath string) error {
	a, err := readResult(aPath)
	if err != nil {
		return err
	}
	b, err := readResult(bPath)
	if err != nil {
		return err
	}
	if err := sameCohort(a, b); err != nil {
		return fmt.Errorf("refusing to compare %s with %s: %w", aPath, bPath, err)
	}
	fmt.Fprintf(w, "a: %s at %s\nb: %s at %s\n", aPath, a.Commit, bPath, b.Commit)
	bad := 0
	for _, wa := range a.Workloads {
		wb := b.workload(wa.Name)
		if wb == nil {
			continue
		}
		if wa.Failed > 0 || wb.Failed > 0 {
			fmt.Fprintf(w, "%s: failed operations (a %d, b %d): a gain does not count and neither does this comparison\n",
				wa.Name, wa.Failed, wb.Failed)
			bad++
		}
		for _, m := range sp.EndToEnd {
			ma, oka := wa.Metrics[m.Name]
			mb, okb := wb.Metrics[m.Name]
			if !oka || !okb {
				continue
			}
			worse, word := verdict(m, ma, mb)
			fmt.Fprintf(w, "%-10s %-14s %14.4f -> %14.4f %-5s worse by %+6.1f%% (bound %.0f%%, spread a %.1f%% n=%d, b %.1f%% n=%d)  %s\n",
				wa.Name, m.Name, ma.Value, mb.Value, m.Unit, worse*100, m.Bound*100,
				ma.Spread()*100, ma.N, mb.Spread()*100, mb.N, word)
			if word == "REGRESSION" || word == "unresolved" {
				bad++
			}
		}
		for _, m := range sp.PerLayer {
			ma, oka := wa.Metrics[m.Name]
			mb, okb := wb.Metrics[m.Name]
			if oka && okb && ma.Value != 0 {
				fmt.Fprintf(w, "%-10s %-44s %14.4f -> %14.4f %-6s %+6.1f%%\n",
					wa.Name, m.Name, ma.Value, mb.Value, m.Unit, (mb.Value/ma.Value-1)*100)
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d metrics regressed or are unresolved", bad)
	}
	fmt.Fprintln(w, "no regression, nothing unresolved")
	return nil
}
